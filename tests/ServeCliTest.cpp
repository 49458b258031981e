//===- tests/ServeCliTest.cpp - velodrome-serve end-to-end tests ----------===//
//
// Drives the installed velodrome-serve binary as a deployment would: a
// daemon process (fork/exec), real unix-domain sockets, the library Client
// streaming real traces, and the service contract checked against the
// velodrome-check binary's stdout on the same trace file — byte for byte.
// Also the home of the cross-process fault matrix: injected ENOMEM, torn
// frames and disconnects with resume, supervised SIGKILL crash/restart
// with state-dir recovery, and graceful SIGTERM shutdown that persists
// in-flight sessions.
//
//===----------------------------------------------------------------------===//

#include "events/BinaryWriter.h"
#include "events/TraceGen.h"
#include "serve/Client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef VELO_SERVE_BIN
#define VELO_SERVE_BIN "velodrome-serve"
#endif
#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
#endif

namespace velo {
namespace serve {
namespace {

/// Clients race the daemon closing NAK'd connections; a late write must
/// come back as EPIPE, not kill the test runner.
const struct SigpipeGuard {
  SigpipeGuard() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipe;

std::string uniquePath(const char *Stem, const char *Ext) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/velo-servecli-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + "-" + Stem + Ext;
}

/// Removes a test's directory and everything the daemon left in it (state
/// files, the crash ledger) when the test ends, failed assertions included.
class DirCleanup {
public:
  explicit DirCleanup(std::string Path) : Path(std::move(Path)) {}
  DirCleanup(const DirCleanup &) = delete;
  DirCleanup &operator=(const DirCleanup &) = delete;
  ~DirCleanup() {
    std::error_code Ignored;
    std::filesystem::remove_all(Path, Ignored);
  }

private:
  std::string Path;
};

Trace genTrace(uint64_t Seed, size_t Steps = 600, unsigned Threads = 4) {
  TraceGenOptions Opts;
  Opts.Threads = Threads;
  Opts.Vars = Threads * 8;
  Opts.Locks = Threads;
  Opts.Steps = Steps;
  Opts.GuardedAccessPct = 60;
  return generateRandomTrace(Seed, Opts);
}

/// What `velodrome-check <path>` prints on stdout, plus its exit code.
int checkCli(const std::string &TracePath, std::string &Stdout) {
  Stdout.clear();
  std::string Cmd =
      std::string(VELO_CHECK_BIN) + " " + TracePath + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Stdout.append(Buf, N);
  int Status = pclose(P);
  if (Status < 0)
    return -1;
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return WEXITSTATUS(Status);
}

/// The velodrome-serve binary as a child process.
struct Daemon {
  pid_t Pid = -1;
  std::string Socket;

  void start(std::vector<std::string> ExtraArgs,
             const std::string &FaultEnv = "") {
    Socket = uniquePath("daemon", ".sock");
    std::vector<std::string> Args = {VELO_SERVE_BIN, "--socket=" + Socket,
                                     "--quiet"};
    for (auto &A : ExtraArgs)
      Args.push_back(A);
    Pid = ::fork();
    ASSERT_GE(Pid, 0) << "fork failed";
    if (Pid == 0) {
      if (!FaultEnv.empty())
        ::setenv("VELO_SERVE_FAULT", FaultEnv.c_str(), 1);
      std::vector<char *> Argv;
      for (auto &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      std::perror("execv velodrome-serve");
      ::_exit(127);
    }
  }

  bool alive() const { return Pid > 0 && ::kill(Pid, 0) == 0; }

  /// SIGTERM and reap; returns the wait exit code (128+sig for signals).
  int stop() {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I < 500; ++I) { // 5s before escalating
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        ::unlink(Socket.c_str());
        if (WIFSIGNALED(Status))
          return 128 + WTERMSIG(Status);
        return WEXITSTATUS(Status);
      }
      ::usleep(10 * 1000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    ::unlink(Socket.c_str());
    return -2; // had to escalate — callers treat as failure
  }

  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      ::unlink(Socket.c_str());
    }
  }
};

/// Connect with retries — covers daemon startup and supervised restarts.
bool connectRetry(Client &Cl, const std::string &Socket,
                  unsigned TimeoutMillis = 10000) {
  Cl.ConnectTimeoutMillis = TimeoutMillis;
  std::string Err;
  return Cl.connectUnix(Socket, Err);
}

/// One full session against the daemon: connect, HELLO (resuming if the
/// daemon already knows the name), stream, FINISH, collect the result.
bool runSession(const std::string &Socket, const std::string &Name,
                const Trace &T, RunResult &R, std::string &Err,
                size_t EventsPerFrame = 64, ClientFaults Faults = {},
                uint64_t CheckpointEvery = 0, bool Resume = false) {
  Client Cl;
  Cl.Faults = Faults;
  if (!connectRetry(Cl, Socket)) {
    Err = "connect timed out";
    return false;
  }
  HelloMsg H;
  H.Name = Name;
  H.Resume = Resume;
  HelloOkMsg Ok;
  NakMsg Nak;
  if (!Cl.hello(H, Ok, Err, &Nak)) {
    if (!Nak.Reason.empty()) {
      R.GotNak = true;
      R.Nak = Nak;
    }
    return false;
  }
  return Cl.run(T.symbols(), std::vector<Event>(T.begin(), T.end()), Ok,
                EventsPerFrame, CheckpointEvery, R, Err);
}

/// The service contract: the daemon's VERDICT for a trace must be
/// byte-identical to what `velodrome-check <path>` prints for it.
void expectMatchesCheckCli(const RunResult &R, const std::string &TracePath) {
  ASSERT_TRUE(R.GotVerdict) << (R.GotNak ? "NAK: " + R.Nak.Reason
                                         : "no verdict");
  std::string Want;
  int WantExit = checkCli(TracePath, Want);
  ASSERT_GE(WantExit, 0) << "velodrome-check failed to run";
  EXPECT_EQ(R.Verdict.Report, Want)
      << "daemon report differs from velodrome-check stdout";
  EXPECT_EQ(R.Verdict.ExitCode, WantExit);
}

std::string writeTraceFile(const Trace &T, const char *Stem) {
  std::string Path = uniquePath(Stem, ".velotrc");
  std::string Err;
  EXPECT_TRUE(writeBinaryTraceFile(T, Path, Err)) << Err;
  return Path;
}

TEST(ServeCliTest, VerdictByteIdenticalToCheckCli) {
  Daemon D;
  D.start({});
  ASSERT_GT(D.Pid, 0);
  for (uint64_t Seed : {3u, 17u}) {
    Trace T = genTrace(Seed);
    std::string Path = writeTraceFile(T, "verdict");
    RunResult R;
    std::string Err;
    // The session is named after the trace file so the report header (the
    // CLI prints its input path there) lines up byte-for-byte.
    ASSERT_TRUE(runSession(D.Socket, Path, T, R, Err)) << Err;
    expectMatchesCheckCli(R, Path);
    ::unlink(Path.c_str());
  }
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, FaultMatrixIsolatesSessionsAndDaemonSurvives) {
  // Injected ENOMEM (via the VELO_SERVE_FAULT env contract) kills exactly
  // one session; clients inflicting torn frames, abrupt disconnects and
  // slow-loris dribbles on their own connections still converge — after a
  // resume — to verdicts byte-identical to velodrome-check. The daemon
  // never exits.
  Daemon D;
  D.start({"--frame-timeout-ms=10000"}, /*FaultEnv=*/"enomem:2");
  ASSERT_GT(D.Pid, 0);

  // Doomed session first (sequentially): its second frame is frame #2 of
  // the daemon's global counter, where the simulated ENOMEM fires.
  {
    Trace T = genTrace(99);
    RunResult R;
    std::string Err;
    runSession(D.Socket, "doomed", T, R, Err, /*EventsPerFrame=*/64);
    ASSERT_TRUE(R.GotNak) << "expected a session-fatal NAK";
    EXPECT_NE(R.Nak.Reason.find("memory"), std::string::npos) << R.Nak.Reason;
    EXPECT_FALSE(R.GotVerdict);
  }
  ASSERT_TRUE(D.alive()) << "a session fault must not take the daemon down";

  // Now the concurrent matrix: 8 sessions, a third of them hostile.
  struct Case {
    std::string Path;
    Trace T;
    RunResult R;
    std::string Err;
    bool Ok = false;
    ClientFaults Faults;
  };
  std::vector<Case> Cases(8);
  for (size_t I = 0; I < Cases.size(); ++I) {
    Cases[I].T = genTrace(100 + I, 400 + 40 * I);
    Cases[I].Path = writeTraceFile(Cases[I].T, "matrix");
    if (I % 3 == 1)
      Cases[I].Faults.TornAfterFrames = 3;
    if (I % 3 == 2)
      Cases[I].Faults.DisconnectAfterFrames = 4;
    if (I == 0) {
      Cases[I].Faults.SlowBytesPerWrite = 512;
      Cases[I].Faults.SlowDelayMillis = 1;
    }
  }
  std::vector<std::thread> Drivers;
  for (auto &C : Cases)
    Drivers.emplace_back([&C, &D] {
      // Hostile clients trip their own fault, then reconnect clean and
      // resume; the server must have kept the session.
      C.Ok = runSession(D.Socket, C.Path, C.T, C.R, C.Err,
                        /*EventsPerFrame=*/32, C.Faults);
      if (!C.R.GotVerdict && (C.Faults.TornAfterFrames ||
                              C.Faults.DisconnectAfterFrames)) {
        // The server may still hold the session InFlight for a moment
        // after the abrupt hangup; resume is briefly refused as busy.
        for (int Try = 0; Try < 50 && !C.R.GotVerdict; ++Try) {
          C.R = RunResult();
          C.Ok = runSession(D.Socket, C.Path, C.T, C.R, C.Err,
                            /*EventsPerFrame=*/32, {}, 0, /*Resume=*/true);
          if (!C.R.GotVerdict)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    });
  for (auto &Th : Drivers)
    Th.join();
  for (auto &C : Cases) {
    ASSERT_TRUE(C.Ok) << C.Err;
    expectMatchesCheckCli(C.R, C.Path);
    ::unlink(C.Path.c_str());
  }
  EXPECT_TRUE(D.alive());
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, SupervisedKillWorkerRestartsAndSessionResumes) {
  // kill-worker SIGKILLs the daemon process mid-frame. Under --supervise
  // it restarts (exponential backoff) and the client resumes its named
  // session from the state directory; the final verdict must still match
  // velodrome-check. Checkpoints every frame keep durable progress ahead
  // of the crash point so the resume loop converges.
  std::string StateDir = uniquePath("state", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  DirCleanup RemoveStateDir{StateDir};
  Daemon D;
  D.start({"--supervise", "--state-dir=" + StateDir, "--max-crashes=10",
           "--fault-at=kill-worker:3"});
  ASSERT_GT(D.Pid, 0);

  Trace T = genTrace(7, 500);
  std::string Path = writeTraceFile(T, "supervised");
  RunResult R;
  bool Done = false;
  for (int Attempt = 0; Attempt < 12 && !Done; ++Attempt) {
    R = RunResult();
    std::string Err;
    // Frame the stream so at least one checkpoint lands before frame 3:
    // frame 1 = events, frame 2 = CHECKPOINT, frame 3 dies.
    if (runSession(D.Socket, Path, T, R, Err, /*EventsPerFrame=*/128, {},
                   /*CheckpointEvery=*/1, /*Resume=*/Attempt > 0) &&
        R.GotVerdict)
      Done = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(Done) << "session never reached a verdict across restarts";
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_TRUE(D.alive()) << "the supervisor must outlive worker crashes";
  EXPECT_EQ(D.stop(), 128 + SIGTERM);
}

TEST(ServeCliTest, GracefulShutdownPersistsSessionsAcrossRestart) {
  // SIGTERM to a supervised daemon is forwarded to the worker, which
  // snapshots every live session to the state directory before exiting;
  // the whole process tree exits 128+SIGTERM within the grace window. A
  // fresh daemon over the same state directory resumes the session where
  // it left off, and the verdict is byte-identical to velodrome-check.
  std::string StateDir = uniquePath("gracestate", "");
  ASSERT_EQ(::mkdir(StateDir.c_str(), 0755), 0);
  DirCleanup RemoveStateDir{StateDir};
  Trace T = genTrace(11, 600);
  std::string Path = writeTraceFile(T, "graceful");
  std::vector<Event> Events(T.begin(), T.end());
  size_t Sent = std::min<size_t>(5 * 64, Events.size());

  std::string FirstSocket;
  {
    Daemon D;
    D.start({"--supervise", "--state-dir=" + StateDir});
    ASSERT_GT(D.Pid, 0);
    FirstSocket = D.Socket;
    // Stream part of the trace, then hang up mid-session (a complete-frame
    // disconnect, never a FINISH): the daemon owes nothing to this client
    // but must keep the session durable.
    Client Cl;
    Cl.Faults.DisconnectAfterFrames = 6; // HELLO + 5 events frames
    ASSERT_TRUE(connectRetry(Cl, D.Socket));
    HelloMsg H;
    H.Name = Path;
    HelloOkMsg Ok;
    std::string Err;
    ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
    RunResult R;
    ASSERT_TRUE(Cl.run(T.symbols(), Events, Ok, /*EventsPerFrame=*/64,
                       /*CheckpointEvery=*/0, R, Err))
        << Err;
    ASSERT_TRUE(R.FaultTripped);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(D.stop(), 128 + SIGTERM);
  }

  Daemon D2;
  D2.start({"--state-dir=" + StateDir});
  ASSERT_GT(D2.Pid, 0);
  Client Cl;
  ASSERT_TRUE(connectRetry(Cl, D2.Socket));
  HelloMsg H;
  H.Name = Path;
  H.Resume = true;
  HelloOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(Cl.hello(H, Ok, Err)) << Err;
  EXPECT_EQ(Ok.Events, Sent)
      << "resumed session lost durable progress across the shutdown";
  RunResult R;
  ASSERT_TRUE(Cl.run(T.symbols(), Events, Ok, /*EventsPerFrame=*/64, 0, R,
                     Err))
      << Err;
  expectMatchesCheckCli(R, Path);
  ::unlink(Path.c_str());
  EXPECT_EQ(D2.stop(), 128 + SIGTERM);
}

} // namespace
} // namespace serve
} // namespace velo
