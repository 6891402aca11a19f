/**
 * @file
 * Environment-variable lookup helpers.
 *
 * Every binary in the tree reads the same family of NA_* knobs
 * (NA_CAMPAIGN_THREADS, NA_CAMPAIGN_JSONL, NA_BENCH_FAST, ...) and each
 * call site used to hand-roll its own getenv + parse. This header is
 * the single implementation:
 *
 *  - env::str()      set-or-absent string lookup
 *  - env::intValue() strict integer parse (std::from_chars, whole
 *                    string, no locale) that *throws* on garbage
 *                    instead of silently reading "abc" as 0
 *  - env::flag()     boolean knob: set, non-empty, and not "0"
 */

#ifndef NETAFFINITY_CORE_ENV_HH
#define NETAFFINITY_CORE_ENV_HH

#include <optional>
#include <string>

namespace na::core::env {

/** @return the raw value of @p name, or nullptr when unset. */
const char *raw(const char *name);

/** @return the value of @p name, or nullopt when unset. */
std::optional<std::string> str(const char *name);

/**
 * @return the integer value of @p name, or nullopt when unset.
 * @throws std::runtime_error (naming the variable and the offending
 *         text) when the value is empty, has trailing junk ("4x"),
 *         is not a number at all ("abc"), or overflows a long long.
 *
 * Negative values parse successfully — whether they are meaningful is
 * the caller's policy (Campaign::resolveThreads rejects them).
 */
std::optional<long long> intValue(const char *name);

/**
 * @return true when @p name is set to a non-empty value other than
 *         "0". Matches the long-standing NA_BENCH_FAST convention:
 *         unset, empty, and "0" all mean off.
 */
bool flag(const char *name);

} // namespace na::core::env

#endif // NETAFFINITY_CORE_ENV_HH
