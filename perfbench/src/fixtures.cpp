#include "fixtures.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/simd/simd.h"
#include "pcap/pcap.h"
#include "synth/model.h"
#include "synth/presets.h"
#include "trace/flows.h"

namespace perfbench {
namespace fs = std::filesystem;
using namespace netsample;

namespace {

const char* preset_token(Preset p) {
  return p == Preset::kSdsc ? "sdsc" : "flowmix";
}

/// Delete the captures of the same shape for other seeds. An hour capture
/// is ~150 MB, and one run per seed would otherwise pile up gigabytes.
void drop_other_seeds(const fs::path& keep, const std::string& prefix) {
  for (const auto& e : fs::directory_iterator(keep.parent_path())) {
    if (e.path() != keep && e.path().filename().string().rfind(prefix, 0) == 0) {
      std::error_code ec;
      fs::remove(e.path(), ec);
    }
  }
}

/// <work>/captures/<prefix>s<seed>.pcap; *prefix names the shape.
std::string capture_path(const std::string& work_dir, const CaptureSpec& spec,
                         std::uint64_t seed, std::string* prefix) {
  std::ostringstream stem;
  stem << preset_token(spec.preset) << "-" << spec.minutes << "m-" << spec.packets
       << "p-" << spec.span_s << "s-" << spec.flow_packets << "f-";
  *prefix = stem.str();
  return (fs::path(work_dir) / "captures" / (*prefix + "s" + std::to_string(seed) + ".pcap"))
      .string();
}

}  // namespace

Capture ensure_capture(const std::string& work_dir, const CaptureSpec& spec,
                       std::uint64_t seed) {
  std::string prefix;
  const std::string path = capture_path(work_dir, spec, seed, &prefix);
  if (!fs::exists(path)) {
    // Generate in a child process: the generator's allocations would
    // otherwise leave this process's heap in a different state on runs
    // that generate than on runs that find the capture cached.
    const std::string exe = self_exe();
    const std::string preset = preset_token(spec.preset);
    std::ostringstream minutes;
    minutes << spec.minutes;
    const std::string packets = std::to_string(spec.packets);
    std::ostringstream span;
    span << spec.span_s;
    const std::string flow = std::to_string(spec.flow_packets);
    const std::string seed_s = std::to_string(seed);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::execl(exe.c_str(), exe.c_str(), "capture", preset.c_str(),
              minutes.str().c_str(), packets.c_str(), span.str().c_str(), flow.c_str(),
              seed_s.c_str(), work_dir.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !fs::exists(path)) {
      throw std::runtime_error("could not generate " + path);
    }
  }
  return {path, spec.packets, static_cast<std::uint64_t>(fs::file_size(path))};
}

int capture_main(int argc, char** argv) {
  if (argc != 9) return 2;
  CaptureSpec spec;
  spec.preset = std::string(argv[2]) == "sdsc" ? Preset::kSdsc : Preset::kFlowMix;
  spec.minutes = std::stod(argv[3]);
  spec.packets = std::stoull(argv[4]);
  spec.span_s = std::stod(argv[5]);
  spec.flow_packets = std::stoull(argv[6]);
  const std::uint64_t seed = std::stoull(argv[7]);
  const std::string work_dir = argv[8];
  std::string prefix;
  const fs::path path = capture_path(work_dir, spec, seed, &prefix);
  fs::create_directories(path.parent_path());
  auto cfg = spec.preset == Preset::kSdsc
                 ? synth::sdsc_minutes_config(spec.minutes, seed)
                 : synth::flow_mix_minutes_config(spec.minutes, seed);
  const trace::Trace full = synth::TraceModel(cfg).generate();
  std::vector<trace::PacketRecord> head;
  head.reserve(spec.packets);
  std::unordered_map<trace::FlowKey, std::uint64_t, trace::FlowKeyHash> seen;
  for (const auto& p : full.packets()) {
    if (head.size() == spec.packets) break;
    if (spec.flow_packets > 0 &&
        ++seen[{p.src, p.dst, p.src_port, p.dst_port, p.protocol}] > spec.flow_packets) {
      continue;
    }
    head.push_back(p);
  }
  if (head.size() < spec.packets) {
    std::fprintf(stderr, "capture %s: only %zu packets in %g minutes\n",
                 path.c_str(), head.size(), spec.minutes);
    return 1;
  }
  if (spec.span_s > 0) {
    const std::uint64_t t0 = head.front().timestamp.usec;
    const double scale = spec.span_s * 1e6 /
                         static_cast<double>(head.back().timestamp.usec - t0);
    for (auto& p : head) {
      p.timestamp = MicroTime{t0 + static_cast<std::uint64_t>(std::llround(
                                       static_cast<double>(p.timestamp.usec - t0) * scale))};
    }
  }
  const trace::Trace t(std::move(head));
  // Write under a temporary name so an interrupted run leaves no torn
  // capture behind under the cached name.
  const fs::path tmp = path.string() + ".tmp" + std::to_string(::getpid());
  const Status st = pcap::write_trace(tmp.string(), t, 128);
  if (!st.is_ok()) {
    std::fprintf(stderr, "capture %s: %s\n", path.c_str(), st.to_string().c_str());
    return 1;
  }
  // Flush it to disk now: left to the kernel, writing back up to 150 MB of
  // dirty pages overlapped the timed ops of this run or the next.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    std::fprintf(stderr, "capture %s: cannot flush it to disk\n", path.c_str());
    return 1;
  }
  ::close(fd);
  fs::rename(tmp, path);
  drop_other_seeds(path, prefix);
  return 0;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

std::uint64_t peak_rss_kb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

Machine machine_info() {
  Machine m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.simd = core::simd::variant_name(core::simd::active_variant());
  return m;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

RowHash fingerprint(std::string_view s) {
  RowHash h{1469598103934665603ull, s.size()};
  for (const unsigned char c : s) {
    h.value ^= c;
    h.value *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
