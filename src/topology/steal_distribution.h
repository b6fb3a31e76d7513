/**
 * @file
 * Locality-biased victim selection (Section III-B).
 *
 * Classic work stealing picks a victim uniformly at random. NUMA-WS biases
 * the distribution by socket distance: victims on the thief's socket are
 * preferred, then one-hop sockets, then two-hop sockets. The bias must keep
 * every victim's probability at least 1/(cP) for a constant c — that lower
 * bound is what preserves the O(P * Tinf) steal bound of Section IV — so
 * weights are strictly positive by construction and validated here.
 *
 * This flat distribution is the only steal path both engines run: every
 * steal attempt draws one victim from it, with no levels, escalation, or
 * board-weighted sampling on top.
 */
#ifndef NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H
#define NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H

#include <vector>

#include "support/rng.h"
#include "topology/machine.h"

namespace numaws {

/** Per-hop-count steal weights; index 0 is the local socket. */
struct BiasWeights
{
    /** Default matches the paper's "highest / medium / lowest" intent. */
    double perHop[3] = {8.0, 2.0, 1.0};

    /** Uniform weights recover the classic scheduler's distribution. */
    static BiasWeights
    uniform()
    {
        return BiasWeights{{1.0, 1.0, 1.0}};
    }
};

/**
 * Precomputed per-thief victim distribution over all workers of a machine.
 *
 * One instance is built per (machine, worker count, weights) configuration;
 * sampling is a binary search over a cumulative table, O(log P) with no
 * allocation, cheap enough for the steal path.
 */
class StealDistribution
{
  public:
    /**
     * @param workers total number of workers, packed socket-major: each
     *        socket holds ceil(workers / numSockets) consecutive workers
     *        (the last socket takes any overflow), so worker w is on
     *        socket min(w / ceil(W/S), S - 1). When W is not a multiple
     *        of S the trailing sockets run short or empty — e.g. 6
     *        workers on 4 sockets fill sockets 0-2 with two each and
     *        leave socket 3 empty. This matches the runtime's startup
     *        policy of grouping each socket's threads together.
     */
    StealDistribution(const Machine &machine, int workers,
                      const BiasWeights &weights);

    /** Socket a worker belongs to under the packing above. */
    int socketOfWorker(int worker) const { return _workerSocket[worker]; }

    /** Socket of every worker, the shape OccupancyBoard's constructor
     * takes. */
    const std::vector<int> &workerSockets() const { return _workerSocket; }

    /**
     * Sample a victim for @p thief; never returns the thief itself.
     */
    int sample(int thief, Rng &rng) const;

    /** Probability that @p thief targets @p victim on one attempt. */
    double probability(int thief, int victim) const;

    /** Smallest nonzero victim probability across all pairs. */
    double minProbability() const;

    int numWorkers() const { return _numWorkers; }

  private:
    int _numWorkers;
    std::vector<int> _workerSocket;
    // Row-major [thief][victim] cumulative probabilities.
    std::vector<double> _cumulative;
    std::vector<double> _probability;
};

} // namespace numaws

#endif // NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H
