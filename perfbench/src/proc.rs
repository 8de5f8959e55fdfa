//! Outside-in accounting for child processes, read from `/proc`.
//!
//! Wall time, user+sys CPU and peak RSS of every child the harness
//! starts, with nothing added to the program: `/proc/<pid>/stat` gives
//! CPU ticks and the process state, `/proc/<pid>/status` the resident
//! high-water mark (`VmHWM`). A child is polled until it turns zombie;
//! its final CPU times are read in that state (before it is reaped),
//! so they are exact to the clock tick.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGINT: i32 = 2;
const SC_CLK_TCK: i32 = 2;
const POLL: Duration = Duration::from_millis(2);

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// One `/proc/<pid>/stat` reading.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// Process state letter (`R`, `S`, `Z`, ...).
    pub state: char,
    /// User + system CPU time.
    pub cpu: Duration,
}

/// Read `/proc/<pid>/stat`; `None` once the process is gone.
pub fn stat(pid: u32) -> Option<Stat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may hold spaces: fields resume after its ')'
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // state is field 3 of the full line, utime 14 and stime 15
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Stat {
        state,
        cpu: Duration::from_secs_f64((utime + stime) as f64 / clock_ticks_per_s()),
    })
}

/// The resident-set high-water mark in KiB; `None` for a zombie.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What a finished child used.
#[derive(Debug, Clone)]
pub struct Usage {
    pub status: ExitStatus,
    pub wall: Duration,
    pub cpu: Duration,
    pub peak_rss_kb: u64,
    pub stdout: String,
    pub stderr: String,
}

impl Usage {
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }
}

/// A running child with its output redirected to files.
pub struct Running {
    child: Child,
    started: Instant,
    out: PathBuf,
    err: PathBuf,
    peak_rss_kb: u64,
    cpu: Duration,
}

/// Start `program args...` with stdout/stderr redirected into
/// `<dir>/<tag>.out|.err` (files, so a chatty child can never block
/// on a full pipe).
pub fn spawn(program: &Path, args: &[String], dir: &Path, tag: &str) -> Result<Running, String> {
    let out = dir.join(format!("{tag}.out"));
    let err = dir.join(format!("{tag}.err"));
    let file = |p: &Path| {
        std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
    };
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(file(&out)?)
        .stderr(file(&err)?)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    Ok(Running {
        child,
        started,
        out,
        err,
        peak_rss_kb: 0,
        cpu: Duration::ZERO,
    })
}

impl Running {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Refresh CPU and peak RSS; returns the state letter, or `None`
    /// when `/proc` no longer has the process.
    pub fn sample(&mut self) -> Option<char> {
        let pid = self.pid();
        if let Some(kb) = peak_rss_kb(pid) {
            self.peak_rss_kb = self.peak_rss_kb.max(kb);
        }
        let st = stat(pid)?;
        self.cpu = st.cpu;
        Some(st.state)
    }

    /// CPU used so far.
    pub fn cpu(&mut self) -> Duration {
        self.sample();
        self.cpu
    }

    /// Ask the child to stop (SIGINT, which the server drains on).
    pub fn interrupt(&self) {
        // SAFETY: kill(2) with a pid we own and a valid signal number;
        // the child is not reaped yet, so the pid cannot be reused.
        unsafe {
            kill(self.pid() as i32, SIGINT);
        }
    }

    /// Poll until the child exits (or `limit` passes, then kill it),
    /// reading its final CPU time while it is a zombie, then reap it.
    pub fn wait(mut self, limit: Duration) -> Result<Usage, String> {
        let wall = loop {
            match self.sample() {
                Some('Z') | None => break self.started.elapsed(),
                Some(_) => {}
            }
            if self.started.elapsed() > limit {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(format!("child {} ran past {limit:?}", self.pid()));
            }
            std::thread::sleep(POLL);
        };
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot reap child: {e}"))?;
        Ok(Usage {
            status,
            wall,
            cpu: self.cpu,
            peak_rss_kb: self.peak_rss_kb,
            stdout: std::fs::read_to_string(&self.out).unwrap_or_default(),
            stderr: std::fs::read_to_string(&self.err).unwrap_or_default(),
        })
    }
}

impl Drop for Running {
    /// A child abandoned on an error path is killed and reaped, so no
    /// run leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Run a child to completion and require exit code 0.
pub fn run(program: &Path, args: &[String], dir: &Path, tag: &str) -> Result<Usage, String> {
    let usage = spawn(program, args, dir, tag)?.wait(Duration::from_secs(150))?;
    if !usage.status.success() {
        return Err(format!(
            "`{} {}` failed ({}): {}",
            program.display(),
            args.join(" "),
            usage.status,
            usage.stderr.trim()
        ));
    }
    Ok(usage)
}
