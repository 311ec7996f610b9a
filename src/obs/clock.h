#ifndef AUTOCE_OBS_CLOCK_H_
#define AUTOCE_OBS_CLOCK_H_

#include <functional>

namespace autoce::obs {

/// \brief The one time source of the library (DESIGN.md §5.12):
/// monotonic seconds as a function.
///
/// An empty Clock means the process steady clock. Deadline budgets,
/// serve deadlines, the adaptation labeling budget and trace timestamps
/// all take a Clock, so tests and the soak harness inject a simulated
/// one and every decision becomes a pure function of the schedule
/// rather than of host speed. `Timer` reads the same steady clock.
using Clock = std::function<double()>;

/// Seconds on the process steady clock (arbitrary epoch).
double SteadySeconds();

/// Reads `clock`, or the steady clock when it is empty.
inline double Now(const Clock& clock) {
  return clock ? clock() : SteadySeconds();
}

}  // namespace autoce::obs

#endif  // AUTOCE_OBS_CLOCK_H_
