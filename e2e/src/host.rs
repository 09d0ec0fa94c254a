//! Host fingerprint and the guards that refuse to print a number the host
//! cannot support.

use std::fs;
use std::path::{Path, PathBuf};

/// What every output records about where it ran.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` (honours affinity and quota).
    pub nproc: usize,
    /// The cgroup CPU quota as the kernel states it, or `none`.
    pub cgroup_cpu: String,
    pub rustc: &'static str,
    pub git_rev: String,
    /// The CPUs the generator and the server's threads are pinned to, when
    /// the host let the benchmark pin them.
    pub pinned: Option<(usize, usize)>,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cgroup_cpu: cgroup_cpu(),
            rustc: env!("E2E_RUSTC_VERSION"),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
            pinned: two_allowed_cpus(),
        }
    }
}

fn cgroup_cpu() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    read("/sys/fs/cgroup/cpu.max")
        .or_else(|| {
            let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
            let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
            Some(format!("{quota} {period}"))
        })
        .unwrap_or_else(|| "none".to_owned())
}

/// The checked-out commit, read from `.git` without running git. The
/// driver's checkout is not a repository; that reads as `unknown`.
fn git_rev(root: &Path) -> Option<String> {
    let head = fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = fs::read_to_string(root.join(".git").join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)
            .map(|rev| rev.trim().to_owned())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Directory for this process's scratch files (store, probe store): beside
/// the executable, so inside the build directory of the checkout.
pub fn scratch_dir() -> PathBuf {
    exe_dir().join(format!("e2e-scratch-{}", std::process::id()))
}

/// Directory of the running executable (falls back to the working directory).
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

// The C library `std` already links; declared here because no `libc` crate
// is vendored.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU set handed to the kernel: room for 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// The first two CPUs this thread may run on: one for the generator, one
/// for the server. `None` where affinity cannot be read (not Linux) or fewer
/// than two CPUs are allowed.
fn two_allowed_cpus() -> Option<(usize, usize)> {
    let mut set = [0u64; CPU_SET_WORDS];
    // SAFETY: `set` is writable for the `size_of_val(&set)` bytes passed as
    // its size; pid 0 names the calling thread.
    let read = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if read != 0 {
        return None;
    }
    let mut allowed = (0..CPU_SET_WORDS * 64).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1);
    Some((allowed.next()?, allowed.next()?))
}

/// Pin the calling thread to `cpu`; threads it spawns afterwards inherit
/// the pin. Left to itself the scheduler sometimes runs the generator and
/// the server worker on one CPU and sometimes on two, which moves a served
/// round trip by a factor of five between identical runs.
pub fn pin_to(cpu: usize) -> bool {
    let mut set = [0u64; CPU_SET_WORDS];
    let Some(word) = set.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `set` is readable for the `size_of_val(&set)` bytes passed as
    // its size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
}
