/**
 * @file
 * The admission wake rule: which parked workers an admitted job wakes.
 *
 * Both engines' serving front doors (Runtime::enqueueJob and the
 * simulator's admitJob) call admissionWakeSocket and keep only their
 * cursor storage and wake mechanics, so the rule exists in one place.
 */
#ifndef NUMAWS_SCHED_ADMISSION_H
#define NUMAWS_SCHED_ADMISSION_H

#include <cstdint>

#include "sched/interference_core.h"
#include "sched/shed_core.h"
#include "topology/place.h"

namespace numaws {

/** admissionWakeSocket's "wake every socket" verdict. */
inline constexpr int kWakeAllSockets = -1;

/**
 * The socket whose parked workers an admission of a job hinted at
 * @p place should wake, or kWakeAllSockets.
 *
 *  - While ShedCore::unparkPressure() holds, every socket: capacity
 *    arrives before the shed threshold crosses, not after.
 *  - Otherwise one socket: the hinted place's when the job carries a
 *    concrete hint below @p sockets, else a round-robin socket, so
 *    bursts of unhinted jobs fan their wakes out instead of thundering
 *    one parking-lot slot. InterferenceCore::steerSocket then moves the
 *    wake off a pressured socket (the identity when adaptation is off
 *    or the socket is calm).
 *
 * @p next_cursor returns the engine's round-robin cursor and advances
 * it; it is called only for the round-robin case, so hinted and
 * pressure-escalated admissions leave the cursor where it was.
 */
template <typename NextCursor>
int
admissionWakeSocket(const ShedCore &shed,
                    const InterferenceCore &interference, Place place,
                    int sockets, NextCursor next_cursor)
{
    if (shed.unparkPressure())
        return kWakeAllSockets;
    int socket;
    if (isConcretePlace(place) && place < sockets) {
        socket = place;
    } else {
        socket = static_cast<int>(static_cast<uint32_t>(next_cursor())
                                  % static_cast<uint32_t>(sockets));
    }
    return interference.steerSocket(socket);
}

} // namespace numaws

#endif // NUMAWS_SCHED_ADMISSION_H
