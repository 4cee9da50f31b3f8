//! Host fingerprint and process memory.

use std::fmt::Write as _;
use std::path::Path;

/// What every result states about the machine and build that made it.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string (`/proc/cpuinfo`), or `unknown`.
    pub cpu_model: String,
    /// The CPU advertises AES-NI.
    pub cpu_aes: bool,
    /// The CPU advertises the SHA extensions.
    pub cpu_sha: bool,
    /// The AES path star-crypto takes here: its hardware rounds run
    /// exactly when the CPU advertises AES-NI.
    pub aes_path: &'static str,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the running host.
    pub fn probe() -> Self {
        let cpu_aes = cpu_has("aes");
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            cpu_aes,
            cpu_sha: cpu_has("sha"),
            aes_path: if cpu_aes { "aes-ni" } else { "soft" },
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object. SHA-256 in star-crypto has no
    /// hardware path, so `sha256_path` is `soft` whatever the CPU offers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"nproc\":{},\"cpu_model\":{},\"cpu_aes\":{},\"cpu_sha\":{},\
             \"aes_path\":\"{}\",\"sha256_path\":\"soft\",\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            self.cpu_aes,
            self.cpu_sha,
            self.aes_path,
            json_str(self.rustc),
            json_str(&self.commit),
        );
        out
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has(feature: &str) -> bool {
    match feature {
        "aes" => std::arch::is_x86_feature_detected!("aes"),
        "sha" => std::arch::is_x86_feature_detected!("sha"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has(_feature: &str) -> bool {
    false
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` by reading `.git` under `root` directly, so nothing
/// outside the checkout is consulted.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Host-probe time on the reference host (a quiet 2-vCPU Xeon with
/// AES-NI), ms. Host-measured end-to-end metrics are scaled to it.
pub const HOST_PROBE_REF_MS: f64 = 4.3;

/// A fixed memory-bound kernel owned by the benchmark: random
/// read-modify-writes over a 6 MiB buffer, about the size of the
/// simulator's own working set. Its time tracks how fast the host runs
/// cache-sensitive code at the moment, independently of the repository's
/// code: on a shared host, neighbours' cache and memory traffic slow the
/// simulator by up to 40% for seconds at a time, and the probe slows with
/// it.
#[derive(Debug)]
pub struct HostProbe {
    buf: Vec<u64>,
    last_ms: f64,
    samples_ms: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Allocates the buffer and takes the first sample.
    pub fn new() -> Self {
        let mut probe = Self {
            buf: (0..(6u64 << 20) / 8).collect(),
            last_ms: 0.0,
            samples_ms: Vec::new(),
        };
        probe.last_ms = probe.run_ms();
        probe.samples_ms.push(probe.last_ms);
        probe
    }

    fn run_ms(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let n = self.buf.len() as u64;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..400_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Samples again and returns how many times slower than the reference
    /// host this one ran since the previous sample: the mean of the two
    /// samples over [`HOST_PROBE_REF_MS`].
    pub fn slowdown(&mut self) -> f64 {
        let now = self.run_ms();
        let slowdown = (self.last_ms + now) / 2.0 / HOST_PROBE_REF_MS;
        self.last_ms = now;
        self.samples_ms.push(now);
        slowdown
    }

    /// Every sample taken, ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
