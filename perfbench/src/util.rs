//! Correctness-check counting, fingerprints, statistics, and run
//! metadata shared by the workloads.

use std::fmt;
use std::process::Command;
use std::time::Instant;

/// Counts correctness checks; a failed check is reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// `|a - b| <= rel * max(|a|, |b|)`.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// 64-bit FNV-1a over whatever is written or formatted into it.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn usizes(&mut self, vs: &[usize]) {
        for &v in vs {
            self.u64(v as u64);
        }
    }

    /// Hashes a value's `Debug` rendering, which spells every `f64` in
    /// shortest round-trip form, so bitwise-different reports differ.
    pub fn debug(&mut self, v: &impl fmt::Debug) {
        use fmt::Write as _;
        let _ = write!(self, "{v:?}");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Median of a nonempty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile of a nonempty sample, interpolated between order
/// statistics.
pub fn first_quartile(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.25 * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    if frac == 0.0 {
        v[lo]
    } else {
        v[lo] + frac * (v[lo + 1] - v[lo])
    }
}

/// Geometric mean of a nonempty positive sample.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The repository root: the benchmark package sits one level below it.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Fingerprint of the workspace sources the benchmark measures (every
/// file under `crates/` and `src/`, plus the root manifest and lock), so
/// a checkout without git history still names the code it ran.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = std::path::Path::new(REPO_ROOT);
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut fp = Fingerprint::new();
    for f in &files {
        if let (Ok(rel), Ok(body)) = (f.strip_prefix(root), std::fs::read(f)) {
            fp.bytes(rel.to_string_lossy().as_bytes());
            fp.bytes(&body);
        }
    }
    fp.hex()
}

/// What was measured, where, and with what: recorded with every result.
#[derive(Debug)]
pub struct RunMeta {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    pub source_hash: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
}

impl RunMeta {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git = std::path::Path::new(REPO_ROOT).join(".git").exists();
        RunMeta {
            commit: git
                .then(|| command_line("git", &["-C", REPO_ROOT, "rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            source_hash: source_hash(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":{},\"source_hash\":{},\"rustc\":{},\"nproc\":{},\"cpu\":{}}}",
            json_str(&self.commit),
            json_str(&self.source_hash),
            json_str(&self.rustc),
            self.nproc,
            json_str(&self.cpu)
        )
    }
}
