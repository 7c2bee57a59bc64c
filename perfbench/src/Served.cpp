//===- perfbench/src/Served.cpp - One round against a live server -------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Served.h"

#include "serve/Client.h"

#include <chrono>
#include <csignal>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace paresy;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// A `paresy_cli --serve` child. The destructor kills and reaps it, so
/// no exit path leaves a server behind; PR_SET_PDEATHSIG covers the
/// benchmark itself being killed.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  bool launch(const std::string &Cli, const std::vector<std::string> &Args,
              std::string *Error) {
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      *Error = "pipe failed";
      return false;
    }
    std::vector<std::string> Argv = {Cli, "--serve", "0"};
    Argv.insert(Argv.end(), Args.begin(), Args.end());
    std::vector<char *> CArgv;
    for (std::string &A : Argv)
      CArgv.push_back(A.data());
    CArgv.push_back(nullptr);
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0) {
      *Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      ::dup2(Pipe[1], STDOUT_FILENO);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      ::execv(CArgv[0], CArgv.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    OutFd = Pipe[0];
    // The server prints its banner, then "serving on HOST:PORT".
    std::string Line;
    const std::string Tag = "serving on ";
    while (readLine(Line, 20.0)) {
      size_t At = Line.find(Tag);
      if (At == std::string::npos)
        continue;
      size_t Colon = Line.rfind(':');
      Port = uint16_t(std::atoi(Line.c_str() + Colon + 1));
      return Port != 0;
    }
    *Error = "server did not report its port";
    return false;
  }

  uint16_t port() const { return Port; }

  /// SIGTERM (graceful drain), then reap with the child's rusage.
  bool stop(double &CpuS, double &PeakRssMb) {
    ::kill(Pid, SIGTERM);
    std::string Line;
    while (readLine(Line, 20.0)) {
    }
    int Status = 0;
    struct rusage Use = {};
    pid_t Got = ::wait4(Pid, &Status, 0, &Use);
    Pid = -1;
    CpuS = double(Use.ru_utime.tv_sec) + double(Use.ru_utime.tv_usec) * 1e-6 +
           double(Use.ru_stime.tv_sec) + double(Use.ru_stime.tv_usec) * 1e-6;
    PeakRssMb = double(Use.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
    return Got > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  /// Reads one line of the child's stdout; false on EOF or timeout.
  bool readLine(std::string &Line, double TimeoutS) {
    Line.clear();
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      struct pollfd P = {OutFd, POLLIN, 0};
      if (::poll(&P, 1, int(TimeoutS * 1000)) <= 0)
        return false;
      char Chunk[4096];
      ssize_t N = ::read(OutFd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
    }
  }

  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
  std::string Buf;
};

} // namespace

bool runServedRound(const std::string &Cli, const Workload &W,
                    RoundResult &Out, std::string *Error) {
  Out = RoundResult();
  Clock::time_point Launch = Clock::now();
  ServerProcess Server;
  if (!Server.launch(Cli, W.ServerArgs, Error))
    return false;
  serve::ServeClient Client;
  if (!Client.connect("127.0.0.1", Server.port(), "perfbench", 1.0, Error))
    return false;
  Out.SetupS = since(Launch);

  Clock::time_point First = Clock::now();
  for (size_t I = 0; I != W.Round.size(); ++I) {
    const Request &Q = W.Round[I];
    Reply R;
    Clock::time_point Sent = Clock::now();
    uint64_t Id = I + 1;
    if (!Client.submit(Id, Q.Examples, "01", Q.Opts)) {
      *Error = "connection closed on submit";
      return false;
    }
    serve::Frame F;
    for (;;) {
      if (!Client.next(F, Error))
        return false;
      if (F.Type == serve::FrameType::Progress && F.Progress.RequestId == Id) {
        ++R.ProgressFrames;
        continue;
      }
      if (F.Type == serve::FrameType::Result && F.Result.RequestId == Id) {
        const serve::ResultFrame &RF = F.Result;
        R.Got.Ok = true;
        R.Got.A.Found = SynthStatus(RF.Status) == SynthStatus::Found;
        R.Got.A.Regex = RF.Regex;
        R.Got.A.Cost = RF.Cost;
        R.Got.Candidates = RF.Candidates;
        break;
      }
      if ((F.Type == serve::FrameType::Overloaded &&
           F.Overloaded.RequestId == Id) ||
          F.Type == serve::FrameType::Error)
        break; // Counted as a failed operation.
    }
    R.LatencyMs = since(Sent) * 1e3;
    Out.Replies.push_back(std::move(R));
  }
  Out.SolveS = since(First);

  serve::Frame F;
  if (Client.requestStats())
    while (Client.next(F) && F.Type != serve::FrameType::StatsReply) {
    }
  Out.ServerStats = F.Stats.Text;
  Client.goodbye();
  if (!Server.stop(Out.CpuS, Out.PeakRssMb)) {
    *Error = "server did not exit cleanly";
    return false;
  }
  return true;
}

} // namespace perfbench
