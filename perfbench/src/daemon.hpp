// The system under test: one larserved child process.
//
// Started with its default flags plus an ephemeral port (--port 0
// --port-file), its output sent to a log file in the run directory. The
// object owns the process: the destructor stops it (SIGTERM, the daemon's
// graceful drain, SIGKILL after a grace period) and reaps it.
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
public:
    /// Spawns `binary`; writes its port file and log under `runDir`.
    /// Throws std::runtime_error when the process cannot be started.
    Daemon(const std::string& binary, const std::string& runDir);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Blocks until the daemon has written its port file (throws when it
    /// exits first or takes longer than `timeoutSeconds`).
    [[nodiscard]] int waitForPort(double timeoutSeconds);

    [[nodiscard]] pid_t pid() const { return pid_; }
    /// utime + stime of every thread so far, in milliseconds
    /// (/proc/<pid>/stat; clock-tick resolution).
    [[nodiscard]] double cpuMillis() const;
    /// Peak resident set size (VmHWM), in MiB.
    [[nodiscard]] double peakRssMb() const;

private:
    pid_t pid_ = -1;
    std::string portFile_;
};

} // namespace perfbench
