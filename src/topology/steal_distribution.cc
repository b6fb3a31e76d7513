#include "topology/steal_distribution.h"

#include <algorithm>

#include "support/panic.h"

namespace numaws {

StealDistribution::StealDistribution(const Machine &machine, int workers,
                                     const BiasWeights &weights)
    : _numWorkers(workers)
{
    NUMAWS_ASSERT(workers >= 1);
    for (int h = 0; h <= std::min(machine.maxHops(), 2); ++h)
        NUMAWS_ASSERT(weights.perHop[h] > 0.0);

    // Spread workers across sockets, packed socket-major: the first
    // ceil(W/S) workers on socket 0, and so on. This matches the runtime's
    // startup policy ("spreads out the worker threads evenly across the
    // sockets and groups the threads on a given socket into a single
    // group").
    _workerSocket.resize(workers);
    const int sockets = machine.numSockets();
    const int per = (workers + sockets - 1) / sockets;
    for (int w = 0; w < workers; ++w)
        _workerSocket[w] = std::min(w / per, sockets - 1);

    _probability.assign(static_cast<std::size_t>(workers) * workers, 0.0);
    _cumulative.assign(static_cast<std::size_t>(workers) * workers, 0.0);

    for (int thief = 0; thief < workers; ++thief) {
        double total = 0.0;
        for (int victim = 0; victim < workers; ++victim) {
            if (victim == thief)
                continue;
            const int h = std::min(
                machine.hops(_workerSocket[thief], _workerSocket[victim]), 2);
            total += weights.perHop[h];
        }
        double run = 0.0;
        for (int victim = 0; victim < workers; ++victim) {
            double p = 0.0;
            if (victim != thief && total > 0.0) {
                const int h = std::min(
                    machine.hops(_workerSocket[thief],
                                 _workerSocket[victim]),
                    2);
                p = weights.perHop[h] / total;
            }
            run += p;
            const std::size_t idx =
                static_cast<std::size_t>(thief) * workers + victim;
            _probability[idx] = p;
            _cumulative[idx] = run;
        }
        // Guard against floating point drift so sampling never walks off
        // the end of the row.
        if (workers > 1)
            _cumulative[static_cast<std::size_t>(thief) * workers
                        + (workers - 1)] = 1.0;
    }
}

int
StealDistribution::sample(int thief, Rng &rng) const
{
    NUMAWS_ASSERT(_numWorkers > 1);
    const double x = rng.nextDouble();
    const double *row =
        _cumulative.data() + static_cast<std::size_t>(thief) * _numWorkers;
    // Binary search for the first cumulative value > x.
    const double *it = std::upper_bound(row, row + _numWorkers, x);
    int victim = static_cast<int>(it - row);
    if (victim >= _numWorkers)
        victim = _numWorkers - 1;
    if (victim == thief) {
        // Zero-probability self entries share a cumulative value with the
        // preceding entry; upper_bound never lands on them unless the
        // thief is worker 0 with x == 0. Skip forward deterministically.
        victim = (victim + 1) % _numWorkers;
    }
    return victim;
}

double
StealDistribution::probability(int thief, int victim) const
{
    return _probability[static_cast<std::size_t>(thief) * _numWorkers
                        + victim];
}

double
StealDistribution::minProbability() const
{
    double min_p = 1.0;
    for (int t = 0; t < _numWorkers; ++t)
        for (int v = 0; v < _numWorkers; ++v)
            if (t != v)
                min_p = std::min(min_p, probability(t, v));
    return min_p;
}

} // namespace numaws
