#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

Daemon::Daemon(const std::string& binary, const std::string& runDir)
    : portFile_(runDir + "/larserved.port") {
    ::unlink(portFile_.c_str());
    const std::string logFile = runDir + "/larserved.log";
    // Everything the child needs is prepared before fork(): after it, the
    // child may only make async-signal-safe calls.
    const char* argv[] = {binary.c_str(), "--port",      "0",
                          "--port-file",  portFile_.c_str(), nullptr};
    const int logFd =
        ::open(logFile.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (logFd < 0)
        throw std::runtime_error("cannot open " + logFile + ": " +
                                 std::strerror(errno));
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(logFd);
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
        // Never outlive the benchmark, even if it is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(logFd, STDOUT_FILENO);
        ::dup2(logFd, STDERR_FILENO);
        ::execv(binary.c_str(), const_cast<char* const*>(argv));
        ::_exit(127);
    }
    ::close(logFd);
}

Daemon::~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    bool signalledKill = false;
    while (true) {
        int status = 0;
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR)) break;
        if (!signalledKill && secondsSince(start) > 10.0) {
            ::kill(pid_, SIGKILL);
            signalledKill = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

int Daemon::waitForPort(double timeoutSeconds) {
    const Clock::time_point start = Clock::now();
    while (true) {
        std::ifstream in(portFile_);
        std::string text;
        if (in && std::getline(in, text) && !in.eof()) {
            // getline stopped at the newline the daemon writes last, so
            // the number is complete.
            return std::stoi(text);
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("larserved exited before listening");
        }
        if (secondsSince(start) > timeoutSeconds)
            throw std::runtime_error("larserved did not write its port file");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

double Daemon::cpuMillis() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The command name (field 2) may hold spaces; fields restart after ')'.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("cannot read /proc/<pid>/stat of larserved");
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field) fields >> skip;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    fields >> utime >> stime;
    return static_cast<double>(utime + stime) * 1000.0 /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // the value is in kB
    }
    throw std::runtime_error("cannot read VmHWM of larserved");
}

} // namespace perfbench
