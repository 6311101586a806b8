//! Keeps the CPUs out of their idle state during open-loop phases.
//!
//! On the 2-vCPU virtual machine the benchmark was tuned on, waking an
//! idle vCPU costs a variable, host-dependent delay. An open-loop phase
//! runs below capacity, so its CPUs idle between requests and every
//! request pays that delay several times (each response fragment wakes
//! the reader): open-loop medians moved by 2x between otherwise
//! identical runs. One spinner thread per CPU in the `SCHED_IDLE` class
//! — the same effect as booting with `idle=poll` — removes that noise.
//! `SCHED_IDLE` threads run only when nothing else wants the CPU and are
//! preempted as soon as a normal thread wakes, so the program and the
//! clients keep the whole machine. Closed-loop phases keep the CPUs busy
//! by themselves and run without spinners: there, a VM that never
//! yields its vCPUs only drew more variable time from the host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running spinners; dropping this stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Moves the calling thread into the `SCHED_IDLE` scheduling class.
fn make_idle_class() -> std::io::Result<()> {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: pid 0 names the calling thread, SCHED_IDLE takes priority
    // 0, and `param` is a live `struct sched_param` for the whole call.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

impl Spinners {
    /// Starts one spinner per CPU.
    ///
    /// # Errors
    ///
    /// When a spinner cannot enter `SCHED_IDLE`: spinning in the normal
    /// class would take CPU from the program.
    pub fn start() -> Result<Spinners, String> {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let stop = Arc::new(AtomicBool::new(false));
        let mut spinners = Spinners {
            stop: stop.clone(),
            threads: Vec::with_capacity(cpus),
        };
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        for _ in 0..cpus {
            let stop = stop.clone();
            let ready = ready_tx.clone();
            let thread = std::thread::Builder::new()
                .name("idle-spinner".to_owned())
                .spawn(move || {
                    let entered = make_idle_class();
                    let ok = entered.is_ok();
                    let _ = ready.send(entered);
                    while ok && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
                .map_err(|e| format!("spawn spinner: {e}"))?;
            spinners.threads.push(thread);
        }
        for _ in 0..cpus {
            match ready_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("spinner cannot enter SCHED_IDLE: {e}")),
                Err(_) => return Err("spinner exited before starting".to_owned()),
            }
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
