#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

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

/**
 * The source tree's root as the compiler spells paths in it: this
 * file's own path without its "src/common/logging.cc" tail.
 */
constexpr std::string_view
sourceRoot()
{
    constexpr std::string_view self = __FILE__;
    constexpr std::string_view tail = "src/common/logging.cc";
    return self.ends_with(tail) ? self.substr(0, self.size() - tail.size())
                                : std::string_view{};
}

/**
 * " (file:line)": where a panic or failed assertion fired, the file
 * relative to the source root, so one failure reads the same from any
 * checkout.
 */
std::string
where(const char *file, int line)
{
    std::string_view path = file;
    if (path.starts_with(sourceRoot()))
        path.remove_prefix(sourceRoot().size());
    return " (" + std::string(path) + ":" + std::to_string(line) + ")";
}

} // namespace

void
setVerbose(bool verbose)
{
    g_verbose = verbose;
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
