//===- tools/velodrome-serve.cpp - Multi-tenant analysis daemon -----------===//
//
// Long-lived daemon form of velodrome-check: clients open named sessions
// over a unix-domain (or loopback TCP) socket, stream VELOTRC event frames,
// and receive a verdict byte-identical to what `velodrome-check` would
// print for the same stream. Sessions are mutually fault-isolated; idle
// ones evict to snapshots; with --state-dir they survive daemon restarts,
// and under --supervise the daemon itself restarts after a crash with
// exponential backoff and a crash bundle.
//
//   velodrome-serve --socket=PATH [options]
//
//   --socket=PATH         unix-domain listener
//   --tcp=PORT            loopback TCP listener (0 = ephemeral; the bound
//                         port is printed as "tcp port: N")
//   --workers=N           analysis worker threads (default 2)
//   --max-sessions=N      concurrent session cap (default 64)
//   --queue-frames=N      per-session queue bound = client credit (default 8)
//   --idle-evict-ms=MS    evict idle sessions to snapshots (0 = off)
//   --frame-timeout-ms=MS partial-frame (slow-loris) deadline (default 10000)
//   --state-dir=DIR       durable session snapshots (resume across restarts)
//   --fault-at=SPEC       deterministic fault injection; SPEC is a comma
//                         list of kill-worker:N, enomem:N, eagain:N,
//                         wedge:N:MS, evict:N (also: VELO_SERVE_FAULT env)
//   --max-events=N --max-live-nodes=N --max-memory-mb=N --deadline-ms=N
//                         default per-session governor caps (a HELLO with
//                         explicit caps overrides; default live-node cap
//                         60000, same as velodrome-check)
//   --supervise           run the daemon in a worker process; restart it
//                         on a crash (requires --state-dir for sessions to
//                         survive the restart)
//   --max-crashes=K       give up after K rapid crashes in a row (default 3)
//   --grace-ms=N          SIGTERM-to-SIGKILL escalation window (default 2000)
//   --quiet               suppress session lifecycle logging
//
// exit: 0 clean shutdown, 2 usage/setup error,
//       4 crashed repeatedly under --supervise,
//       128+N stopped by signal N
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Parse.h"
#include "support/Syscalls.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace velo;
using namespace velo::serve;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: velodrome-serve --socket=PATH [options]\n"
      "  --socket=PATH          unix-domain listener\n"
      "  --tcp=PORT             loopback TCP listener (0 = ephemeral)\n"
      "  --workers=N            analysis worker threads (default 2)\n"
      "  --max-sessions=N       concurrent session cap (default 64)\n"
      "  --queue-frames=N       per-session queue bound / client credit "
      "(default 8)\n"
      "  --idle-evict-ms=MS     evict idle sessions to snapshots (0 = off)\n"
      "  --frame-timeout-ms=MS  slow-loris partial-frame deadline "
      "(default 10000)\n"
      "  --state-dir=DIR        durable session snapshots\n"
      "  --fault-at=SPEC        kill-worker:N,enomem:N,eagain:N,"
      "wedge:N:MS,evict:N\n"
      "  --max-events=N --max-live-nodes=N --max-memory-mb=N "
      "--deadline-ms=N\n"
      "                         default per-session governor caps\n"
      "  --supervise --max-crashes=K --grace-ms=N   crash resilience\n"
      "  --quiet                suppress lifecycle logging\n"
      "exit: 0 clean shutdown, 2 usage/setup error,\n"
      "      4 crashed repeatedly under --supervise, "
      "128+N stopped by signal N\n");
}

struct ToolOptions {
  ServerOptions Srv;
  bool TcpSet = false;
  bool Supervise = false;
  uint64_t MaxCrashes = 3;
  uint64_t GraceMillis = 2000;
};

/// Returns 0 to continue, 2 on usage error, -1 when --help was handled.
int parseArgs(int argc, char **argv, ToolOptions &O) {
  O.Srv.Verbose = true;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    uint64_t *U64Target = nullptr;
    size_t U64Prefix = 0;
    bool Valid = true;
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return -1;
    } else if (Arg.rfind("--socket=", 0) == 0) {
      O.Srv.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--tcp=", 0) == 0) {
      uint64_t Port = 0;
      if (!parseU64(Arg.c_str() + 6, Port) || Port > 65535) {
        std::fprintf(stderr, "error: bad port in '%s'\n", Arg.c_str());
        return 2;
      }
      O.Srv.TcpPort = static_cast<int>(Port);
      O.TcpSet = true;
    } else if (Arg.rfind("--state-dir=", 0) == 0) {
      O.Srv.StateDir = Arg.substr(12);
    } else if (Arg.rfind("--fault-at=", 0) == 0) {
      std::string Err;
      if (!parseFaultSpec(Arg.substr(11), O.Srv.Faults, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 2;
      }
    } else if (Arg == "--supervise") {
      O.Supervise = true;
    } else if (Arg == "--quiet") {
      O.Srv.Verbose = false;
    } else if (Arg.rfind("--workers=", 0) == 0) {
      uint64_t N = 0;
      if (!parseU64(Arg.c_str() + 10, N) || N == 0 || N > 1024) {
        std::fprintf(stderr, "error: bad value in '%s'\n", Arg.c_str());
        return 2;
      }
      O.Srv.Workers = static_cast<unsigned>(N);
    } else if (Arg.rfind("--max-sessions=", 0) == 0) {
      uint64_t N = 0;
      if (!parseU64(Arg.c_str() + 15, N) || N == 0) {
        std::fprintf(stderr, "error: bad value in '%s'\n", Arg.c_str());
        return 2;
      }
      O.Srv.MaxSessions = static_cast<size_t>(N);
    } else if (Arg.rfind("--queue-frames=", 0) == 0) {
      uint64_t N = 0;
      if (!parseU64(Arg.c_str() + 15, N) || N == 0) {
        std::fprintf(stderr, "error: bad value in '%s'\n", Arg.c_str());
        return 2;
      }
      O.Srv.QueueFrames = static_cast<size_t>(N);
    } else if (Arg.rfind("--idle-evict-ms=", 0) == 0) {
      U64Target = &O.Srv.IdleEvictMillis;
      U64Prefix = 16;
    } else if (Arg.rfind("--frame-timeout-ms=", 0) == 0) {
      U64Target = &O.Srv.FrameTimeoutMillis;
      U64Prefix = 19;
    } else if (parseLimitFlag(Arg, O.Srv.SessionLimits, Valid)) {
      // Valid is checked below with the other numeric flags.
    } else if (Arg.rfind("--max-crashes=", 0) == 0) {
      U64Target = &O.MaxCrashes;
      U64Prefix = 14;
    } else if (Arg.rfind("--grace-ms=", 0) == 0) {
      U64Target = &O.GraceMillis;
      U64Prefix = 11;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
    if (!Valid ||
        (U64Target && !parseU64(Arg.c_str() + U64Prefix, *U64Target))) {
      std::fprintf(stderr, "error: bad value in '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (O.Srv.SocketPath.empty() && !O.TcpSet) {
    std::fprintf(stderr, "error: --socket or --tcp is required\n");
    usage();
    return 2;
  }
  std::string Err;
  if (!applyFaultEnv(O.Srv.Faults, Err)) {
    std::fprintf(stderr, "error: VELO_SERVE_FAULT: %s\n", Err.c_str());
    return 2;
  }
  if (O.MaxCrashes == 0)
    O.MaxCrashes = 1;
  return 0;
}

Server *ActiveServer = nullptr;
volatile std::sig_atomic_t StopSignal = 0;

void onStopSignal(int Sig) {
  StopSignal = Sig;
  if (ActiveServer)
    ActiveServer->requestStop(); // atomic store + pipe write: signal-safe
}

void installStopHandlers() {
  struct sigaction SA = {};
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

void resetStopHandlers() {
  struct sigaction SA = {};
  SA.sa_handler = SIG_DFL;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

int runDaemon(const ToolOptions &O) {
  Server Srv(O.Srv);
  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "velodrome-serve: %s\n", Err.c_str());
    return 2;
  }
  ActiveServer = &Srv;
  installStopHandlers();
  if (!O.Srv.SocketPath.empty())
    std::printf("listening on %s\n", O.Srv.SocketPath.c_str());
  if (O.TcpSet)
    std::printf("tcp port: %d\n", Srv.tcpPort());
  std::fflush(stdout);
  Srv.run();
  ActiveServer = nullptr;
  int Sig = static_cast<int>(StopSignal);
  if (Sig != 0) {
    std::fprintf(stderr,
                 "velodrome-serve: stopped by signal %d; sessions %s\n", Sig,
                 O.Srv.StateDir.empty() ? "discarded (no --state-dir)"
                                        : "snapshotted for resume");
    return 128 + Sig;
  }
  return 0;
}

/// Append a crash record next to the session state so an operator (or the
/// integration test) can see what the supervisor observed.
void writeCrashBundle(const ToolOptions &O, int Sig, uint64_t CrashNo) {
  std::string Dir = O.Srv.StateDir.empty() ? "." : O.Srv.StateDir;
  std::ofstream Out(Dir + "/velodrome-serve.crashes",
                    std::ios::out | std::ios::app);
  Out << "worker killed by signal " << Sig << " (crash " << CrashNo
      << " in this window); sessions resume from " << Dir << "\n";
}

int runSupervised(const ToolOptions &O) {
  if (O.Srv.StateDir.empty())
    std::fprintf(stderr,
                 "velodrome-serve: warning: --supervise without "
                 "--state-dir; sessions will not survive a restart\n");
  installStopHandlers();
  uint64_t SameWindow = 0;
  for (;;) {
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("velodrome-serve: fork");
      return 2;
    }
    if (Pid == 0) {
      resetStopHandlers();
      ToolOptions Worker = O;
      Worker.Supervise = false;
      int Rc = runDaemon(Worker);
      std::fflush(nullptr);
      std::_Exit(Rc);
    }
    auto WorkerStart = std::chrono::steady_clock::now();
    int Status = 0;
    bool Stopping = false;
    int StopSig = 0;
    for (;;) {
      if (StopSignal != 0 && !Stopping) {
        // Forward the signal; the daemon snapshots its sessions and
        // exits. Escalate to SIGKILL only past the grace window (the
        // snapshots are rename-atomic, so even then nothing tears).
        Stopping = true;
        StopSig = static_cast<int>(StopSignal);
        ::kill(Pid, StopSig);
        uint64_t WaitedMs = 0;
        pid_t Done = 0;
        while (WaitedMs < O.GraceMillis) {
          Done = sys::waitpidRetry(Pid, &Status, WNOHANG);
          if (Done == Pid)
            break;
          ::usleep(20 * 1000);
          WaitedMs += 20;
        }
        if (Done != Pid) {
          std::fprintf(stderr,
                       "supervisor: daemon did not stop within %llu ms; "
                       "escalating to SIGKILL\n",
                       static_cast<unsigned long long>(O.GraceMillis));
          ::kill(Pid, SIGKILL);
          sys::waitpidRetry(Pid, &Status, 0);
        }
        break;
      }
      pid_t R = sys::waitpidRetry(Pid, &Status, WNOHANG);
      if (R == Pid)
        break;
      if (R < 0) {
        std::perror("velodrome-serve: waitpid");
        return 2;
      }
      ::usleep(10 * 1000);
    }
    if (Stopping) {
      std::fprintf(stderr, "supervisor: stopped by signal %d\n", StopSig);
      return 128 + StopSig;
    }
    if (WIFEXITED(Status))
      return WEXITSTATUS(Status); // clean daemon exit: nothing to restart
    int Sig = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
    // "Rapid" crashes count against the window; a daemon that served for a
    // while before dying earned a fresh window.
    double UpSecs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - WorkerStart)
                        .count();
    SameWindow = UpSecs < 30.0 ? SameWindow + 1 : 1;
    writeCrashBundle(O, Sig, SameWindow);
    std::fprintf(stderr,
                 "supervisor: daemon killed by signal %d after %.1fs "
                 "(crash %llu of %llu in this window); restarting\n",
                 Sig, UpSecs, static_cast<unsigned long long>(SameWindow),
                 static_cast<unsigned long long>(O.MaxCrashes));
    if (SameWindow >= O.MaxCrashes) {
      std::fprintf(stderr,
                   "supervisor: giving up after %llu rapid crashes (see "
                   "%s/velodrome-serve.crashes)\n",
                   static_cast<unsigned long long>(SameWindow),
                   O.Srv.StateDir.empty() ? "." : O.Srv.StateDir.c_str());
      return 4;
    }
    unsigned BackoffMs = 50u << (SameWindow - 1);
    if (BackoffMs > 2000)
      BackoffMs = 2000;
    ::usleep(BackoffMs * 1000);
  }
}

} // namespace

int main(int argc, char **argv) {
  // A disconnecting client must surface as EPIPE on the write, never as
  // SIGPIPE daemon death.
  sys::ignoreSigpipe();
  ToolOptions O;
  switch (parseArgs(argc, argv, O)) {
  case -1:
    return 0;
  case 2:
    return 2;
  default:
    break;
  }
  if (O.Supervise)
    return runSupervised(O);
  return runDaemon(O);
}
