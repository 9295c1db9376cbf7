//! Pinning the service workload to one CPU.
//!
//! On a 2-vCPU virtual machine, a request that wakes a thread on the
//! other, idle vCPU waits for the hypervisor to resume that vCPU, and
//! how long that takes depends on the host's load. Unpinned, identical
//! `retrid_tcp` runs split into two modes: p99 53–62 µs at ~77k
//! requests/s, or p99 97–125 µs at 51k–61k. With every thread on one
//! CPU each hop is a local context switch, and the workload measures
//! the CPU cost of the request path instead of the host's wake-ups.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 CPUs as 64-bit words.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restricts the calling thread, and every thread it starts later, to
/// the lowest CPU it may run on. Returns that CPU, or `None` if the
/// kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_started_after_pinning_share_the_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning is allowed");
            let inherited = std::thread::spawn(pin_to_one_cpu).join().unwrap();
            assert_eq!(inherited, Some(cpu));
        })
        .join()
        .unwrap();
    }
}
