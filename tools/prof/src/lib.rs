//! A SIGPROF stack sampler for the repo benchmark, loaded with
//! `LD_PRELOAD` into the unmodified binary.
//!
//! When `TOPICK_PROF_DIR` names a directory, the library's constructor arms
//! a 2 ms `ITIMER_PROF`. Each SIGPROF records the interrupted thread's id,
//! its name and its whole stack, by glibc's `backtrace()`, into a fixed
//! static buffer. At exit the process writes one file,
//! `$TOPICK_PROF_DIR/prof-<pid>.txt`, holding its executable mappings and
//! every sample; the benchmark runs one child per repetition, so a run
//! leaves one file per process. `report` symbolizes them.
//!
//! x86-64 Linux with glibc only: there is no `libc` crate offline, so the
//! few declarations it needs are written out below.

use std::cell::UnsafeCell;
use std::ffi::{c_char, c_int, c_long, c_void};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// CPU time between samples.
const PERIOD_US: c_long = 2_000;
/// Samples kept; later ones are counted as dropped (65 s of CPU time).
const SLOTS: usize = 1 << 15;
/// Frames kept per sample, innermost first.
const DEPTH: usize = 96;
/// Frames the handler and the signal trampoline add above the interrupted
/// one, when the interrupted address is not found among the frames.
const SIGNAL_FRAMES: usize = 2;

const SIGPROF: c_int = 27;
const ITIMER_PROF: c_int = 2;
const SA_SIGINFO: c_int = 4;
const SA_RESTART: c_int = 0x1000_0000;
const PR_GET_NAME: c_int = 16;
/// Byte offset of the interrupted `rip` in an x86-64 `ucontext_t`:
/// `uc_flags`, `uc_link` and the 24-byte `stack_t`, then `gregs[REG_RIP]`
/// with `REG_RIP` = 16.
const UCONTEXT_RIP: usize = 40 + 16 * 8;

/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct SigAction {
    sa_sigaction: extern "C" fn(c_int, *mut c_void, *mut c_void),
    sa_mask: [u64; 16],
    sa_flags: c_int,
    sa_restorer: usize,
}

#[repr(C)]
struct TimeVal {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct ITimerVal {
    it_interval: TimeVal,
    it_value: TimeVal,
}

extern "C" {
    fn sigaction(signum: c_int, act: *const SigAction, oldact: *mut SigAction) -> c_int;
    fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
    fn gettid() -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn atexit(f: extern "C" fn()) -> c_int;
}

/// One sample. Its handler owns it from claiming it until it publishes
/// `header`; the exit writer reads only published ones.
struct Slot {
    /// `tid << 32 | depth`, stored last; 0 until then.
    header: AtomicU64,
    /// The thread's name (`PR_GET_NAME`, NUL-padded).
    comm: UnsafeCell<[u8; 16]>,
    frames: UnsafeCell<[usize; DEPTH]>,
}

struct Samples([Slot; SLOTS]);

// SAFETY: a slot's cells are written only by the one handler whose
// `fetch_add` on `CLAIMED` returned its index, and read only after its
// `header` is published with `Release` and seen with `Acquire`.
unsafe impl Sync for Samples {}

static SAMPLES: Samples = Samples(
    [const {
        Slot {
            header: AtomicU64::new(0),
            comm: UnsafeCell::new([0; 16]),
            frames: UnsafeCell::new([0; DEPTH]),
        }
    }; SLOTS],
);
/// Slots claimed so far, dropped ones included.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

#[used]
#[link_section = ".init_array"]
static INIT: extern "C" fn() = init;

/// Where the profile goes, if profiling was asked for.
fn out_dir() -> Option<String> {
    std::env::var("TOPICK_PROF_DIR")
        .ok()
        .filter(|d| !d.is_empty())
}

extern "C" fn init() {
    if out_dir().is_none() {
        return;
    }
    let mut warm = [std::ptr::null_mut(); 4];
    let action = SigAction {
        sa_sigaction: on_sigprof,
        sa_mask: [0; 16],
        sa_flags: SA_SIGINFO | SA_RESTART,
        sa_restorer: 0,
    };
    let period = TimeVal {
        tv_sec: 0,
        tv_usec: PERIOD_US,
    };
    let timer = ITimerVal {
        it_interval: TimeVal { ..period },
        it_value: period,
    };
    // SAFETY: `backtrace` writes at most 4 pointers into `warm`; its first
    // call loads libgcc, which must not happen inside the handler. The
    // action and timer are valid for the calls, and `on_sigprof` and
    // `write_profile` have the signatures glibc calls them with.
    unsafe {
        backtrace(warm.as_mut_ptr(), 4);
        if sigaction(SIGPROF, &action, std::ptr::null_mut()) != 0
            || atexit(write_profile) != 0
            || setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) != 0
        {
            eprintln!("topick-prof: could not arm the sampler");
        }
    }
}

extern "C" fn on_sigprof(_signum: c_int, _info: *mut c_void, context: *mut c_void) {
    let index = CLAIMED.fetch_add(1, Ordering::Relaxed);
    let Some(slot) = SAMPLES.0.get(index) else {
        return;
    };
    let mut stack = [std::ptr::null_mut::<c_void>(); DEPTH + SIGNAL_FRAMES];
    // SAFETY: the kernel passes an x86-64 `ucontext_t` as the third
    // argument of an `SA_SIGINFO` handler, so `rip` is in bounds;
    // `backtrace` writes at most `stack.len()` pointers; `prctl` writes
    // at most 16 bytes into the slot's name; this handler alone owns the
    // claimed slot (see `Samples`).
    unsafe {
        let rip = context
            .cast::<u8>()
            .add(UCONTEXT_RIP)
            .cast::<usize>()
            .read();
        let depth = backtrace(stack.as_mut_ptr(), stack.len() as c_int).max(0) as usize;
        // The handler's own frame and the trampoline come first.
        let top = stack[..depth]
            .iter()
            .position(|&f| f as usize == rip)
            .unwrap_or(SIGNAL_FRAMES.min(depth));
        let kept = (depth - top).min(DEPTH);
        let frames = &mut *slot.frames.get();
        for (dst, src) in frames.iter_mut().zip(&stack[top..top + kept]) {
            *dst = *src as usize;
        }
        prctl(PR_GET_NAME, slot.comm.get().cast::<c_char>());
        let tid = gettid() as u32 as u64;
        slot.header
            .store(tid << 32 | kept as u64, Ordering::Release);
    }
}

/// Writes the profile: disarms the timer, then renders the process's
/// executable mappings and every published sample.
extern "C" fn write_profile() {
    let off = ITimerVal {
        it_interval: TimeVal {
            tv_sec: 0,
            tv_usec: 0,
        },
        it_value: TimeVal {
            tv_sec: 0,
            tv_usec: 0,
        },
    };
    // SAFETY: a zero timer is valid; it stops further samples.
    unsafe {
        setitimer(ITIMER_PROF, &off, std::ptr::null_mut());
    }
    let Some(dir) = out_dir() else {
        return;
    };
    let claimed = CLAIMED.load(Ordering::Acquire);
    let mut out = String::new();
    let _ = writeln!(out, "topick-prof 1");
    let _ = writeln!(out, "period_us {PERIOD_US}");
    let _ = writeln!(out, "dropped {}", claimed.saturating_sub(SLOTS));
    let args: Vec<String> = std::env::args().collect();
    let _ = writeln!(out, "cmdline {}", args.join(" "));
    if let Ok(exe) = std::fs::read_link("/proc/self/exe") {
        let _ = writeln!(out, "exe {}", exe.display());
    }
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [range, perms, offset, _, _, path, ..] = fields[..] {
            if let (Some((start, end)), true) = (range.split_once('-'), perms.contains('x')) {
                let _ = writeln!(out, "map {start} {end} {offset} {path}");
            }
        }
    }
    for slot in &SAMPLES.0[..claimed.min(SLOTS)] {
        let header = slot.header.load(Ordering::Acquire);
        if header == 0 {
            continue;
        }
        // SAFETY: a published slot is never written again.
        let (comm, frames) = unsafe { (&*slot.comm.get(), &*slot.frames.get()) };
        let name: String = comm
            .iter()
            .take_while(|&&b| b != 0)
            .map(|&b| if b.is_ascii_graphic() { b as char } else { '_' })
            .collect();
        let _ = write!(
            out,
            "s {} {}",
            header >> 32,
            if name.is_empty() { "?" } else { &name }
        );
        for f in &frames[..(header & 0xffff_ffff) as usize] {
            let _ = write!(out, " {f:x}");
        }
        out.push('\n');
    }
    let path = format!("{dir}/prof-{}.txt", std::process::id());
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("topick-prof: cannot write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work long enough per call that most samples interrupt it.
    #[inline(never)]
    fn spin(mut x: u64) -> u64 {
        let mut i = 0;
        while i < 1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            i += 1;
        }
        x
    }

    /// Armed by hand in this process, the sampler records stacks whose
    /// first frame is the interrupted code, not the handler or the signal
    /// trampoline, and writes them with the executable mappings.
    #[test]
    fn samples_start_at_the_interrupted_code() {
        let dir = std::env::temp_dir().join(format!("topick-prof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TOPICK_PROF_DIR", &dir);
        init();
        let start = std::time::Instant::now();
        let mut x = 1;
        while start.elapsed() < std::time::Duration::from_millis(400) {
            x = spin(x);
        }
        write_profile();
        std::env::remove_var("TOPICK_PROF_DIR");
        assert_ne!(x, 0);
        let path = dir.join(format!("prof-{}.txt", std::process::id()));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.lines().any(|l| l.starts_with("exe ")));
        assert!(text.lines().any(|l| l.starts_with("map ")));
        let firsts: Vec<usize> = text
            .lines()
            .filter_map(|l| l.strip_prefix("s "))
            .filter_map(|s| usize::from_str_radix(s.split(' ').nth(2)?, 16).ok())
            .collect();
        assert!(firsts.len() >= 20, "{} samples", firsts.len());
        let entry = spin as *const () as usize;
        let in_spin = firsts
            .iter()
            .filter(|&&a| (entry..entry + 1024).contains(&a))
            .count();
        assert!(
            2 * in_spin > firsts.len(),
            "{in_spin} of {} samples in spin",
            firsts.len()
        );
    }
}
