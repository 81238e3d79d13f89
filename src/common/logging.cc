#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ssp
{

namespace
{

bool g_verbose = true;

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<std::size_t>(n));
    }
    va_end(ap2);
    return out;
}

/** " (file:line)": where a panic or failed assertion fired. */
std::string
where(const char *file, int line)
{
    return " (" + std::string(file) + ":" + std::to_string(line) + ")";
}

} // namespace

void
setVerbose(bool verbose)
{
    g_verbose = verbose;
}

bool
verbose()
{
    return g_verbose;
}

// The three error paths only throw: whoever catches the exception (a
// CLI's main, a sweep cell, a test) decides whether and how to print
// it, so no message reaches stderr twice.  Uncaught, the exception
// still terminates the process with its text.

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw std::logic_error("panic: " + msg + where(file, line));
}

void
fatalImpl(const char * /*file*/, int /*line*/, const char *fmt, ...)
{
    // A user-facing error (bad option, impossible configuration): the
    // message names the problem, not the source line that found it.
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw std::runtime_error("fatal: " + msg);
}

void
assertFailImpl(const char *file, int line, const char *cond)
{
    throw std::logic_error(std::string("assertion failed: ") + cond +
                           where(file, line));
}

void
assertFailImpl(const char *file, int line, const char *cond, const char *fmt,
               ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw std::logic_error(std::string("assertion failed: ") + cond +
                           (msg.empty() ? "" : ": " + msg) + where(file, line));
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    if (!g_verbose)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace ssp
