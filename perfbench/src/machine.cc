#include "machine.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "util/simd.h"

namespace perfbench {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

int CpuForSlot(int slot) {
  static const std::vector<int> cpus = AllowedCpus();
  return cpus[static_cast<size_t>(slot) % cpus.size()];
}

bool PinThread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      const int id = std::atoi(e->d_name);
      if (id > 0) ids.push_back(static_cast<pid_t>(id));
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<pid_t> NewThreads(const std::vector<pid_t>& before, const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double TaskCpuSeconds(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  unsigned long long ns = 0;
  in >> ns;
  return in ? static_cast<double>(ns) * 1e-9 : 0.0;
}

namespace {

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string FingerprintJson(uint64_t seed) {
  std::string flags = CpuInfoField("flags");
  flags.insert(0, 1, ' ');
  flags.push_back(' ');
  std::string isa = "x86-64";
  for (const std::string ext : {"sse4_2", "avx2", "fma", "avx512f", "avx512bw", "avx512vl"}) {
    if (flags.find(' ' + ext + ' ') != std::string::npos) isa.append("+").append(ext);
  }
  double load1 = 0.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = -1.0;
    std::fclose(f);
  }
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"allowed_cpus\": " << AllowedCpus().size()
     << ", \"cpu_model\": \"" << JsonEscape(CpuInfoField("model name")) << "\""
     << ", \"isa\": \"" << isa << "\""
     << ", \"simd_kernel\": \"" << wmsketch::simd::ActiveKernel() << "\""
     << ", \"loadavg_1m\": " << load1 << ", \"seed\": " << seed << "}";
  return os.str();
}

}  // namespace perfbench
