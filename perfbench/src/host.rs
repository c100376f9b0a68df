//! The host a result was measured on. A number counts only together with
//! the machine, toolchain and source revision that produced it.

use std::path::Path;
use std::process::Command;

use dco_bench::sweep::json::Json;

/// Cores, memory, toolchain and revision of this measurement.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `MemTotal` from `/proc/meminfo`, MiB (0 when unreadable).
    pub mem_total_mib: u64,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the working directory is the top of a
    /// git checkout.
    pub commit: Option<String>,
    /// Tracked files differ from `commit`.
    pub dirty: Option<bool>,
}

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let mem_total_mib = std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("MemTotal:"))?;
                line.split_whitespace().nth(1)?.parse::<u64>().ok()
            })
            .map_or(0, |kib| kib / 1024);
        let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
        // Only a checkout rooted here describes the code measured; git
        // would otherwise report an enclosing repository.
        let here = std::env::current_dir()
            .ok()
            .and_then(|d| d.canonicalize().ok());
        let top = run("git", &["rev-parse", "--show-toplevel"])
            .and_then(|t| Path::new(&t).canonicalize().ok());
        let (commit, dirty) = if here.is_some() && here == top {
            let commit = run("git", &["rev-parse", "HEAD"]);
            let dirty = run("git", &["status", "--porcelain", "--untracked-files=no"])
                .map(|s| !s.is_empty());
            (commit, dirty)
        } else {
            (None, None)
        };
        Host {
            nproc,
            mem_total_mib,
            rustc,
            commit,
            dirty,
        }
    }

    /// The host as a JSON object.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Int(self.nproc)),
            ("mem_total_mib", Json::Int(self.mem_total_mib)),
            ("rustc", Json::str(self.rustc.as_str())),
            (
                "commit",
                self.commit.as_deref().map_or(Json::Null, Json::str),
            ),
            ("dirty", self.dirty.map_or(Json::Null, Json::Bool)),
        ])
    }
}
