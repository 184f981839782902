#include "simrank/obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "simrank/common/json_writer.h"
#include "simrank/common/string_util.h"
#include "simrank/obs/log_sink.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

namespace simrank {

#if defined(__linux__)

// Older glibc spells the SIGEV_THREAD_ID target field through the union.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace {

constexpr uint32_t kMaxFrames = 32;
constexpr uint32_t kRingCapacity = 2048;

struct RawSample {
  uint32_t depth;
  uintptr_t pc[kMaxFrames];
};

/// Per-registered-thread state. Stable address (held by unique_ptr in the
/// registry); the owning thread's TLS slot and the signal handler point at
/// it. The ring is allocated when the thread first participates in a
/// session and reused afterwards — it is never freed while the process
/// lives, which is what makes the handler's unsynchronized access safe.
struct ThreadState {
  int64_t tid = 0;
  char name[32] = {};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;

  // Written by the signal handler, read offline after disarming.
  std::atomic<uint64_t> head{0};  // total captures; slot = head % capacity
  std::atomic<RawSample*> ring{nullptr};
  std::atomic<bool> armed{false};
  std::unique_ptr<RawSample[]> ring_storage;

  timer_t timer{};
  bool timer_created = false;
};

__thread ThreadState* tls_thread_state = nullptr;

/// One-shot capture slot for CaptureThreadStack. The requesting thread
/// holds the registry mutex for the whole exchange, so there is at most
/// one outstanding request.
struct CaptureSlot {
  std::atomic<int64_t> target_tid{0};
  std::atomic<bool> done{false};
  RawSample sample;
};
CaptureSlot g_capture;

/// Async-signal-safe frame-pointer walk. Leaf PC and starting frame come
/// from the interrupted context; every dereferenced frame pointer is
/// bounds-checked against the thread's stack and forced to grow, so a
/// broken chain terminates the walk instead of faulting.
void CaptureBacktrace(void* ucontext_void, const ThreadState& state,
                      RawSample* out) {
  out->depth = 0;
  uintptr_t pc = 0;
  uintptr_t fp = 0;
#if defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_void);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_void);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)ucontext_void;
  pc = reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
#endif
  if (pc != 0) out->pc[out->depth++] = pc;
  while (out->depth < kMaxFrames) {
    if (fp < state.stack_lo || fp + 2 * sizeof(uintptr_t) > state.stack_hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret = frame[1];
    const uintptr_t next_fp = frame[0];
    if (ret < 4096) break;
    out->pc[out->depth++] = ret;
    if (next_fp <= fp) break;
    fp = next_fp;
  }
}

void ProfilerSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                           void* ucontext) {
  const int saved_errno = errno;
  ThreadState* state = tls_thread_state;
  if (state != nullptr) {
    if (g_capture.target_tid.load(std::memory_order_acquire) == state->tid) {
      CaptureBacktrace(ucontext, *state, &g_capture.sample);
      g_capture.target_tid.store(0, std::memory_order_release);
      g_capture.done.store(true, std::memory_order_release);
    } else if (state->armed.load(std::memory_order_acquire)) {
      RawSample* ring = state->ring.load(std::memory_order_acquire);
      if (ring != nullptr) {
        const uint64_t slot =
            state->head.load(std::memory_order_relaxed) % kRingCapacity;
        CaptureBacktrace(ucontext, *state, &ring[slot]);
        state->head.fetch_add(1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

void InstallHandlerOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action = {};
    action.sa_sigaction = &ProfilerSignalHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGPROF, &action, nullptr);
  });
}

/// Registry of registered threads plus the single-session state. A plain
/// namespace-scope singleton (leaked on exit) so worker threads may still
/// unregister during static destruction.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadState>> live;
  // Threads that unregistered mid-session; their samples are folded into
  // the session report, then the states are dropped.
  std::vector<std::unique_ptr<ThreadState>> retired;
  bool session_active = false;
  uint32_t session_hz = 0;
  std::chrono::steady_clock::time_point session_start;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

void ArmThread(ThreadState* state, uint32_t hz) {
  if (state->ring_storage == nullptr) {
    state->ring_storage = std::make_unique<RawSample[]>(kRingCapacity);
  }
  state->head.store(0, std::memory_order_relaxed);
  state->ring.store(state->ring_storage.get(), std::memory_order_release);

  struct sigevent event = {};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event.sigev_notify_thread_id = static_cast<pid_t>(state->tid);
  // CLOCK_THREAD_CPUTIME_ID names the *calling* thread's CPU clock, but
  // timers are armed centrally from the session starter; the target
  // thread's clock needs the kernel's per-thread encoding (the same
  // computation pthread_getcpuclockid does): ~tid in the high bits,
  // CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK in the low three.
  const clockid_t thread_clock = static_cast<clockid_t>(
      (~static_cast<clockid_t>(state->tid) << 3) | 6);
  if (::timer_create(thread_clock, &event, &state->timer) != 0) {
    return;
  }
  state->timer_created = true;
  state->armed.store(true, std::memory_order_release);

  const long interval_ns = static_cast<long>(1000000000ll / hz);
  struct itimerspec spec = {};
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = interval_ns;
  spec.it_value = spec.it_interval;
  ::timer_settime(state->timer, 0, &spec, nullptr);
}

void DisarmThread(ThreadState* state) {
  state->armed.store(false, std::memory_order_release);
  if (state->timer_created) {
    ::timer_delete(state->timer);
    state->timer_created = false;
  }
}

/// Function symbols of the main executable, read from its .symtab.
/// dladdr only sees .dynsym, so every internal-linkage function (anonymous
/// namespaces, statics — most of the serving hot path) would otherwise
/// degrade to "binary+0xoffset" and break profile attribution. Built
/// lazily on the first offline symbolization, never in the handler.
class ExeSymbolTable {
 public:
  static const ExeSymbolTable& Instance() {
    static const ExeSymbolTable* table = new ExeSymbolTable();
    return *table;
  }

  /// Mangled name of the function covering runtime address `pc`, or
  /// nullptr when pc is outside the executable or between functions.
  const char* Lookup(uintptr_t pc) const {
    if (funcs_.empty() || pc < text_lo_ || pc >= text_hi_) return nullptr;
    const uintptr_t vaddr = pc - bias_;
    auto it = std::upper_bound(
        funcs_.begin(), funcs_.end(), vaddr,
        [](uintptr_t v, const Func& f) { return v < f.addr; });
    if (it == funcs_.begin()) return nullptr;
    --it;
    if (it->size != 0 && vaddr >= it->addr + it->size) return nullptr;
    return it->name.c_str();
  }

 private:
  struct Func {
    uintptr_t addr;
    uintptr_t size;
    std::string name;
  };

  static int CollectMainPhdrs(struct dl_phdr_info* info, size_t /*size*/,
                              void* data) {
    auto* self = static_cast<ExeSymbolTable*>(data);
    self->bias_ = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
      const auto& phdr = info->dlpi_phdr[i];
      if (phdr.p_type != PT_LOAD || (phdr.p_flags & PF_X) == 0) continue;
      const uintptr_t lo = info->dlpi_addr + phdr.p_vaddr;
      self->text_lo_ = self->text_lo_ == 0 ? lo : std::min(self->text_lo_, lo);
      self->text_hi_ = std::max(self->text_hi_, lo + phdr.p_memsz);
    }
    return 1;  // the first entry is the main program; stop
  }

  ExeSymbolTable() {
    ::dl_iterate_phdr(&CollectMainPhdrs, this);
    const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(sizeof(Elf64_Ehdr))) {
      ::close(fd);
      return;
    }
    const size_t len = static_cast<size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) return;
    const auto* bytes = static_cast<const unsigned char*>(map);
    const auto* ehdr = reinterpret_cast<const Elf64_Ehdr*>(bytes);
    if (std::memcmp(ehdr->e_ident, ELFMAG, SELFMAG) == 0 &&
        ehdr->e_ident[EI_CLASS] == ELFCLASS64 &&
        ehdr->e_shoff + static_cast<uint64_t>(ehdr->e_shnum) *
                sizeof(Elf64_Shdr) <= len) {
      const auto* shdrs =
          reinterpret_cast<const Elf64_Shdr*>(bytes + ehdr->e_shoff);
      for (uint16_t s = 0; s < ehdr->e_shnum; ++s) {
        if (shdrs[s].sh_type != SHT_SYMTAB) continue;
        if (shdrs[s].sh_link >= ehdr->e_shnum) continue;
        const Elf64_Shdr& strtab = shdrs[shdrs[s].sh_link];
        if (shdrs[s].sh_offset + shdrs[s].sh_size > len ||
            strtab.sh_offset + strtab.sh_size > len) {
          continue;
        }
        const auto* syms =
            reinterpret_cast<const Elf64_Sym*>(bytes + shdrs[s].sh_offset);
        const char* names =
            reinterpret_cast<const char*>(bytes + strtab.sh_offset);
        const uint64_t count = shdrs[s].sh_size / sizeof(Elf64_Sym);
        for (uint64_t i = 0; i < count; ++i) {
          if (ELF64_ST_TYPE(syms[i].st_info) != STT_FUNC) continue;
          if (syms[i].st_value == 0 || syms[i].st_name == 0) continue;
          if (syms[i].st_name >= strtab.sh_size) continue;
          funcs_.push_back(Func{static_cast<uintptr_t>(syms[i].st_value),
                                static_cast<uintptr_t>(syms[i].st_size),
                                std::string(names + syms[i].st_name)});
        }
      }
      std::sort(funcs_.begin(), funcs_.end(),
                [](const Func& a, const Func& b) { return a.addr < b.addr; });
    }
    ::munmap(map, len);
  }

  std::vector<Func> funcs_;
  uintptr_t bias_ = 0;
  uintptr_t text_lo_ = 0;
  uintptr_t text_hi_ = 0;
};

/// dladdr + demangle with a per-report cache. Non-leaf PCs are return
/// addresses, so they are nudged back one byte to land inside the call.
std::string SymbolizePc(uintptr_t pc, bool leaf,
                        std::unordered_map<uintptr_t, std::string>* cache) {
  const uintptr_t addr = leaf ? pc : pc - 1;
  auto it = cache->find(addr);
  if (it != cache->end()) return it->second;

  std::string name;
  Dl_info info = {};
  const bool have_dl = ::dladdr(reinterpret_cast<void*>(addr), &info) != 0;
  const char* mangled =
      have_dl && info.dli_sname != nullptr ? info.dli_sname : nullptr;
  // Internal-linkage functions are invisible to dladdr; the executable's
  // own .symtab covers them.
  if (mangled == nullptr) mangled = ExeSymbolTable::Instance().Lookup(addr);
  if (mangled != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name.assign(demangled);
    } else {
      name.assign(mangled);
    }
    std::free(demangled);
  } else if (have_dl && info.dli_fname != nullptr &&
             info.dli_fbase != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    name = StrFormat(
        "%s+0x%llx", base != nullptr ? base + 1 : info.dli_fname,
        static_cast<unsigned long long>(
            addr - reinterpret_cast<uintptr_t>(info.dli_fbase)));
  } else {
    name = "[unknown]";
  }
  // Collapsed-stack format reserves ';' as the frame separator.
  std::replace(name.begin(), name.end(), ';', ':');
  (*cache)[addr] = name;
  return name;
}

/// Renders one raw stack as "thread;outer;...;leaf" (capture order is
/// leaf-first, so frames are emitted in reverse).
std::string RenderStack(const char* thread_name, const RawSample& sample,
                        std::unordered_map<uintptr_t, std::string>* cache) {
  std::string line(thread_name);
  for (uint32_t i = sample.depth; i > 0; --i) {
    line.push_back(';');
    line += SymbolizePc(sample.pc[i - 1], /*leaf=*/i == 1, cache);
  }
  return line;
}

/// Folds one thread's ring into the per-stack counts.
void CollectThread(const ThreadState& state,
                   std::map<std::string, uint64_t>* stacks,
                   std::unordered_map<uintptr_t, std::string>* cache,
                   uint64_t* total, uint64_t* dropped) {
  const RawSample* ring = state.ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const uint64_t head = state.head.load(std::memory_order_acquire);
  const uint64_t available = std::min<uint64_t>(head, kRingCapacity);
  *total += head;
  *dropped += head - available;
  const uint64_t begin = head - available;
  for (uint64_t i = begin; i < head; ++i) {
    const RawSample& sample = ring[i % kRingCapacity];
    if (sample.depth == 0) continue;
    ++(*stacks)[RenderStack(state.name, sample, cache)];
  }
}

}  // namespace

int64_t CurrentTid() {
  return static_cast<int64_t>(::syscall(SYS_gettid));
}

CpuProfiler& CpuProfiler::Instance() {
  static CpuProfiler* instance = new CpuProfiler();
  return *instance;
}

void CpuProfiler::RegisterCurrentThread(const char* name) {
  if (tls_thread_state != nullptr) return;
  auto state = std::make_unique<ThreadState>();
  state->tid = CurrentTid();
  std::strncpy(state->name, name, sizeof(state->name) - 1);
  pthread_attr_t attr;
  if (::pthread_getattr_np(::pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (::pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      state->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      state->stack_hi = state->stack_lo + stack_size;
    }
    ::pthread_attr_destroy(&attr);
  }
  InstallHandlerOnce();

  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  tls_thread_state = state.get();
  if (registry.session_active) {
    ArmThread(state.get(), registry.session_hz);
  }
  registry.live.push_back(std::move(state));
}

void CpuProfiler::UnregisterCurrentThread() {
  ThreadState* state = tls_thread_state;
  if (state == nullptr) return;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  tls_thread_state = nullptr;
  DisarmThread(state);
  auto it = std::find_if(
      registry.live.begin(), registry.live.end(),
      [state](const std::unique_ptr<ThreadState>& s) { return s.get() == state; });
  if (it == registry.live.end()) return;
  if (registry.session_active) {
    // Keep the samples for the session's Stop().
    registry.retired.push_back(std::move(*it));
  }
  registry.live.erase(it);
}

Status CpuProfiler::Start(uint32_t frequency_hz) {
  if (frequency_hz == 0 || frequency_hz > kMaxHz) {
    return Status::InvalidArgument(
        StrFormat("profile frequency must be in [1, %u] Hz", kMaxHz));
  }
  InstallHandlerOnce();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (registry.session_active) {
    return Status::InvalidArgument("a profiling session is already running");
  }
  registry.retired.clear();
  registry.session_active = true;
  registry.session_hz = frequency_hz;
  registry.session_start = std::chrono::steady_clock::now();
  for (auto& state : registry.live) {
    ArmThread(state.get(), frequency_hz);
  }
  session_active_.store(true, std::memory_order_release);
  return Status::OK();
}

ProfileReport CpuProfiler::Stop() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  ProfileReport report;
  if (!registry.session_active) return report;
  for (auto& state : registry.live) {
    DisarmThread(state.get());
    ++report.armed_threads;
  }
  report.armed_threads += static_cast<uint32_t>(registry.retired.size());
  // A signal already past the armed check may still be completing; give it
  // a moment before reading the rings. Rings are never freed, so even a
  // straggler past this grace period writes into valid (merely ignored)
  // memory.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  report.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    registry.session_start)
          .count();
  report.frequency_hz = registry.session_hz;

  std::map<std::string, uint64_t> stacks;
  std::unordered_map<uintptr_t, std::string> cache;
  for (const auto& state : registry.live) {
    CollectThread(*state, &stacks, &cache, &report.total_samples,
                  &report.dropped_samples);
  }
  for (const auto& state : registry.retired) {
    CollectThread(*state, &stacks, &cache, &report.total_samples,
                  &report.dropped_samples);
  }
  registry.retired.clear();
  registry.session_active = false;
  session_active_.store(false, std::memory_order_release);

  // Highest count first; ties resolved lexically for a stable report.
  std::vector<std::pair<uint64_t, const std::string*>> ordered;
  ordered.reserve(stacks.size());
  for (const auto& [line, count] : stacks) {
    ordered.emplace_back(count, &line);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return *a.second < *b.second;
            });
  for (const auto& [count, line] : ordered) {
    report.collapsed += *line;
    report.collapsed += ' ';
    report.collapsed += StrFormat("%llu", static_cast<unsigned long long>(count));
    report.collapsed += '\n';
  }
  return report;
}

Result<ProfileReport> CpuProfiler::ProfileFor(double seconds,
                                              uint32_t frequency_hz) {
  if (!(seconds > 0.0) || seconds > kMaxSeconds) {
    return Status::InvalidArgument(
        StrFormat("profile duration must be in (0, %.0f] seconds",
                  kMaxSeconds));
  }
  OIPSIM_RETURN_IF_ERROR(Start(frequency_hz));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return Stop();
}

std::string CpuProfiler::CaptureThreadStack(int64_t tid) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const ThreadState* state = nullptr;
  for (const auto& candidate : registry.live) {
    if (candidate->tid == tid) {
      state = candidate.get();
      break;
    }
  }
  if (state == nullptr) return "";
  InstallHandlerOnce();
  g_capture.done.store(false, std::memory_order_release);
  g_capture.sample.depth = 0;
  g_capture.target_tid.store(tid, std::memory_order_release);
  if (::syscall(SYS_tgkill, ::getpid(), static_cast<pid_t>(tid), SIGPROF) !=
      0) {
    g_capture.target_tid.store(0, std::memory_order_release);
    return "";
  }
  // The mutex is held across the wait, so no other request can race for
  // the capture slot; the target cannot unregister (it would block on the
  // mutex), keeping its state alive.
  for (int i = 0; i < 200; ++i) {
    if (g_capture.done.load(std::memory_order_acquire)) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (!g_capture.done.load(std::memory_order_acquire)) {
    g_capture.target_tid.store(0, std::memory_order_release);
    return "";
  }
  std::unordered_map<uintptr_t, std::string> cache;
  return RenderStack(state->name, g_capture.sample, &cache);
}

#else  // !__linux__

int64_t CurrentTid() { return 0; }

CpuProfiler& CpuProfiler::Instance() {
  static CpuProfiler* instance = new CpuProfiler();
  return *instance;
}

void CpuProfiler::RegisterCurrentThread(const char* /*name*/) {}
void CpuProfiler::UnregisterCurrentThread() {}

Status CpuProfiler::Start(uint32_t /*frequency_hz*/) {
  return Status::Unimplemented("sampling profiler requires Linux");
}

ProfileReport CpuProfiler::Stop() { return ProfileReport{}; }

Result<ProfileReport> CpuProfiler::ProfileFor(double /*seconds*/,
                                              uint32_t /*frequency_hz*/) {
  return Status::Unimplemented("sampling profiler requires Linux");
}

std::string CpuProfiler::CaptureThreadStack(int64_t /*tid*/) { return ""; }

#endif  // __linux__

// ---------------------------------------------------------------------------
// ProfileLogger

Result<std::unique_ptr<ProfileLogger>> ProfileLogger::Start(
    Options options, JsonlLogSink* log) {
  if (log == nullptr) {
    return Status::InvalidArgument("profile logging needs an event log");
  }
  if (options.frequency_hz == 0 ||
      options.frequency_hz > CpuProfiler::kMaxHz) {
    return Status::InvalidArgument("profile-log frequency out of range");
  }
  if (options.period_seconds == 0) {
    return Status::InvalidArgument("profile-log period must be positive");
  }
  std::unique_ptr<ProfileLogger> logger(
      new ProfileLogger(std::move(options), log));
  logger->thread_ = std::thread([raw = logger.get()] { raw->Loop(); });
  return logger;
}

ProfileLogger::ProfileLogger(Options options, JsonlLogSink* log)
    : options_(std::move(options)), log_(log) {}

ProfileLogger::~ProfileLogger() { Stop(); }

void ProfileLogger::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  log_->Flush();
}

void ProfileLogger::Loop() {
  // Sample a slice of each period, not all of it: the profiler is a
  // singleton, and a full-duty logger would starve every on-demand
  // /v1/debug/profile session with 409s.
  constexpr double kDutyCycle = 0.1;
  const double sample_seconds =
      static_cast<double>(options_.period_seconds) * kDutyCycle;
  while (!stop_.load(std::memory_order_acquire)) {
    const auto period_start = std::chrono::steady_clock::now();
    // An on-demand session owns the profiler for this period; skip it.
    auto profiled =
        CpuProfiler::Instance().ProfileFor(sample_seconds,
                                           options_.frequency_hz);
    if (profiled.ok()) {
      const ProfileReport& report = *profiled;
      const uint64_t unix_micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      JsonWriter json;
      json.BeginObject();
      json.Key("type").String("profile");
      json.Key("unix_micros").Uint(unix_micros);
      json.Key("duration_seconds").Double(report.duration_seconds);
      json.Key("frequency_hz").Uint(report.frequency_hz);
      json.Key("samples").Uint(report.total_samples);
      json.Key("dropped").Uint(report.dropped_samples);
      json.Key("threads").Uint(report.armed_threads);
      json.Key("collapsed").String(report.collapsed);
      json.EndObject();
      log_->Append(json.str());
      profiles_written_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto period_end =
        period_start + std::chrono::seconds(options_.period_seconds);
    while (!stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < period_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

}  // namespace simrank
