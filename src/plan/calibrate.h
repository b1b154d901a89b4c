#ifndef SECMED_PLAN_CALIBRATE_H_
#define SECMED_PLAN_CALIBRATE_H_

#include <string>
#include <vector>

#include "plan/cost_model.h"
#include "util/result.h"

namespace secmed {
namespace plan {

/// Micro-probe settings for `secmedctl calibrate`. The defaults match
/// the cost model's reference sizes, so the measured coefficients slot
/// directly into a CalibrationProfile.
struct CalibrateOptions {
  size_t paillier_bits = 1024;
  size_t group_bits = 512;
  size_t rsa_bits = 1024;
  /// Timing samples per primitive; the median is recorded.
  size_t samples = 7;
  /// Inner repetitions per sample for sub-millisecond primitives.
  size_t reps = 4;
  std::string seed_label = "calibrate";
};

/// Runs the per-primitive micro-probes (Paillier encrypt/decrypt-CRT/
/// scalar-mul, commutative exponentiation, hybrid sealing with per-byte
/// split, SHA-256, in-process wire cost) and returns the measured
/// profile. Wall-clock timing: run on an idle machine and from an
/// optimized build for recordable numbers.
Result<CalibrationProfile> RunCalibration(const CalibrateOptions& options);

/// Compares `measured` against the committed `reference`. Returns one
/// message per coefficient whose ratio falls outside [1/tolerance,
/// tolerance] — empty means the committed profile still describes this
/// host. (The CI check is warn-only: shared runners drift.)
std::vector<std::string> CompareProfiles(const CalibrationProfile& reference,
                                         const CalibrationProfile& measured,
                                         double tolerance);

}  // namespace plan
}  // namespace secmed

#endif  // SECMED_PLAN_CALIBRATE_H_
