/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (simulator bug); throws
 *            std::logic_error "panic: <msg> (file:line)".
 * fatal()  — the user asked for something impossible (bad config); throws
 *            std::runtime_error "fatal: <msg>".
 * warn()   — something is off but the simulation can continue.
 * inform() — status messages.
 *
 * panic, fatal and failed assertions print nothing themselves: the
 * catcher (a CLI's main, a sweep cell, a test) reports what() once.
 */

#ifndef SSP_COMMON_LOGGING_HH
#define SSP_COMMON_LOGGING_HH

namespace ssp
{

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void assertFailImpl(const char *file, int line,
                                 const char *cond);

[[noreturn]] void assertFailImpl(const char *file, int line, const char *cond,
                                 const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);
bool verbose();

} // namespace ssp

#define ssp_panic(...) ::ssp::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define ssp_fatal(...) ::ssp::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define ssp_warn(...) ::ssp::warnImpl(__VA_ARGS__)
#define ssp_inform(...) ::ssp::informImpl(__VA_ARGS__)

/**
 * Assert an internal invariant; compiled into all build types.  A
 * failure throws std::logic_error "assertion failed: <cond>[: <msg>]
 * (file:line)".
 * The optional message must start with a string literal:
 *   ssp_assert(x < n, "x=%u out of range", x);
 *
 * The no-message form dispatches (via __VA_OPT__) to a message-less
 * overload so no zero-length format string is ever materialized —
 * keeping -Wformat-zero-length quiet under -Werror.
 */
#define ssp_assert(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::ssp::assertFailImpl(__FILE__, __LINE__,                        \
                                  #cond __VA_OPT__(, ) __VA_ARGS__);         \
        }                                                                    \
    } while (0)

/**
 * Hot-loop invariant: checked like ssp_assert in builds without NDEBUG
 * (the Debug/ASan CI leg), compiled out — condition unevaluated — in
 * Release, so inner loops (cache tag lookups, functional memory,
 * sharer-index consistency) pay nothing for their asserts where the
 * numbers are measured.  The unevaluated sizeof keeps variables that
 * only the assertion references "used" under -Wall -Werror.
 */
#ifdef NDEBUG
#define ssp_assert_dbg(cond, ...)                                            \
    do {                                                                     \
        (void)sizeof(!(cond));                                               \
    } while (0)
#else
#define ssp_assert_dbg(...) ssp_assert(__VA_ARGS__)
#endif

#endif // SSP_COMMON_LOGGING_HH
