#include "sched/steal_core.h"

#include "sched/parking.h"
#include "support/panic.h"

namespace numaws {

StealAction
StealCore::nextAction()
{
    NUMAWS_ASSERT(_view.dist != nullptr);
    relaxedAdd(_counters.stealAttempts);
    StealAction a;
    a.victim = _view.dist->sample(_self, _rng);
    // BIASEDSTEALWITHPUSH: flip a coin between the victim's mailbox and
    // its deque. Always checking the mailbox first would let a critical
    // node at a deque head starve (Section IV); coinFlip=false is the
    // ablation that prices exactly that.
    a.checkMailboxFirst =
        _policy.useMailboxes && (!_policy.coinFlip || _rng.flip());
    return a;
}

int
StealCore::pickPreemptVictim(int cls, const int8_t *runningCls, int n)
{
    NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
    // An idle worker means the admission wake already has a taker:
    // preempting anyone would run the job no sooner and cost a yield.
    for (int w = 0; w < n; ++w)
        if (runningCls[w] < 0)
            return -1;
    // Otherwise yield the worker running the lowest-priority class
    // strictly below the admitted job's (numerically greater); lowest
    // index on ties so both engines pick the same victim.
    int victim = -1;
    int worst = cls;
    for (int w = 0; w < n; ++w)
        if (runningCls[w] > worst) {
            worst = runningCls[w];
            victim = w;
        }
    return victim;
}

int
StealCore::pickPushReceiver(int first, int last, int self_in_range,
                            int target_socket)
{
    NUMAWS_ASSERT(first < last);
    // Board-guided receiver: sample only among workers whose mailbox
    // bit advertises room (never-invented occupancy means a set bit is
    // always a real frame, so skipping it saves a guaranteed-wasted
    // probe; a clear bit may be stale, in which case the deposit is
    // still rejected and the pusher retries as before). When every bit
    // on the place is set — or the knob is off — probe blind.
    const OccupancyBoard *board = _view.board;
    if (_policy.boardPushTargeting() && boardUsable()) {
        const int receiver = pickClearMailbox(
            first, last, self_in_range,
            board->mailboxBits(target_socket),
            [board](int w) { return board->workerMask(w); }, _rng);
        if (receiver >= 0)
            return receiver;
    }
    return first
           + static_cast<int>(_rng.nextBounded(
               static_cast<uint64_t>(last - first)));
}

} // namespace numaws
