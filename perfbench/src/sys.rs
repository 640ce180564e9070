//! The Linux services the standard library does not expose: a poll
//! with a nanosecond timeout, per-thread timer slack, and `/proc`
//! readings of CPU time and peak memory.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Nanoseconds since the first call in this process, on the monotonic
/// clock. Comparable across threads, not across processes.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps until one of `fds` is readable (or writable, where
/// `want_write` says so) or `timeout` passes. Spurious and signal
/// wake-ups return early; callers re-check their state.
pub fn wait_io(fds: &[RawFd], want_write: &[bool], timeout: Duration) -> io::Result<()> {
    let mut poll_fds: Vec<PollFd> = fds
        .iter()
        .zip(want_write)
        .map(|(&fd, &w)| PollFd {
            fd,
            events: if w { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `poll_fds` is a live, exclusively borrowed array of
    // `poll_fds.len()` `#[repr(C)]` pollfd records, `ts` is a valid
    // timespec that outlives the call, and a null signal mask is
    // allowed (the thread's mask is kept).
    let rc = unsafe {
        ppoll(
            poll_fds.as_mut_ptr(),
            poll_fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Asks the kernel to wake this thread's timed sleeps within 1 ns of
/// their deadline instead of the default 50 µs slack, so a paced
/// sender leaves on schedule.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's scheduling attributes.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// CPU time (user plus system) of every live thread of process `pid`,
/// in nanoseconds, summed from `/proc/<pid>/task/*/schedstat`.
pub fn process_cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("schedstat");
        // A thread that exits between the listing and the read is
        // simply gone; its time no longer belongs to a live thread.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += first_field(&text)?;
        }
    }
    Ok(total)
}

/// CPU time of the calling thread, in nanoseconds, exact to the call
/// (`/proc` figures of a running thread can lag by a scheduler tick).
pub fn thread_cpu_ns() -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the
    // kernel to fill; the clock id is a constant the kernel knows.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

fn first_field(schedstat: &str) -> io::Result<u64> {
    schedstat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed schedstat"))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// What a busy-loop saw of the host while it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stalls {
    /// Longest gap between two consecutive clock reads, in ns.
    pub max_gap_ns: u64,
    /// Share of the probe's wall time lost in gaps longer than
    /// [`STALL_GAP_NS`].
    pub share: f64,
}

/// A clock-read gap longer than this is the thread being off its CPU.
pub const STALL_GAP_NS: u64 = 100_000;

/// Busy-loops for `length`, reading the clock, and reports how long
/// and how often the thread was kept off the CPU: a noisy-neighbour
/// minute shows here before it shows in a latency percentile.
pub fn stall_probe(length: Duration) -> Stalls {
    let start = Instant::now();
    let mut last = start;
    let mut stats = Stalls::default();
    let mut stalled = 0u64;
    loop {
        let now = Instant::now();
        let gap = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
        stats.max_gap_ns = stats.max_gap_ns.max(gap);
        if gap > STALL_GAP_NS {
            stalled += gap;
        }
        last = now;
        if now - start >= length {
            break;
        }
    }
    stats.share = stalled as f64 / (last - start).as_nanos().max(1) as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    fn spin(cpu: Duration) {
        let start = thread_cpu_ns().expect("thread schedstat");
        while thread_cpu_ns().expect("thread schedstat") - start < cpu.as_nanos() as u64 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn child_cpu_excludes_the_generator_thread() {
        // The system under test idles in its own process while the
        // generator (this thread) burns CPU: none of that may be
        // charged to the server.
        let mut idle = Command::new("sleep").arg("5").spawn().expect("spawn sleep");
        let before = process_cpu_ns(idle.id()).expect("child cpu");
        spin(Duration::from_millis(200));
        let after = process_cpu_ns(idle.id()).expect("child cpu");
        idle.kill().expect("kill sleep");
        idle.wait().expect("reap sleep");
        assert!(after - before < 20_000_000, "charged {} ns", after - before);

        // And a busy server is charged while the generator sleeps.
        let mut busy = Command::new("sh")
            .args(["-c", "while :; do :; done"])
            .spawn()
            .expect("spawn sh");
        let before = process_cpu_ns(busy.id()).expect("child cpu");
        std::thread::sleep(Duration::from_millis(300));
        let after = process_cpu_ns(busy.id()).expect("child cpu");
        busy.kill().expect("kill sh");
        busy.wait().expect("reap sh");
        assert!(
            after - before > 100_000_000,
            "saw only {} ns",
            after - before
        );
    }

    #[test]
    fn peak_rss_reads_own_status() {
        let kib = peak_rss_kib(std::process::id()).expect("VmHWM");
        assert!(kib > 0);
    }

    #[test]
    fn wait_io_honours_a_sub_millisecond_timeout() {
        tight_timer_slack();
        let (reader, _writer) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        use std::os::fd::AsRawFd;
        let start = Instant::now();
        wait_io(&[reader.as_raw_fd()], &[false], Duration::from_micros(300)).expect("ppoll");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_micros(300), "{waited:?}");
        assert!(waited < Duration::from_millis(50), "{waited:?}");
    }
}
