//! `hbc-benchmark expect`: rewrites `benchmark/expected/`, the SHA-256
//! digests of every response body the workloads check by digest. Each
//! body is taken from the matching figure binary, whose standard output
//! is by contract byte-identical to the served body.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::procs::{self, Bins};
use crate::sha256;
use crate::workload::{self, Stream, Workload, DEFAULT_SEED};

pub fn write_all() -> Result<(), String> {
    let bins = procs::build()?;
    let dir = Path::new("benchmark/expected");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for w in [Workload::ColdFig6, Workload::ColdFig3] {
        let mut table = String::new();
        for i in 0..workload::COLD_DIGESTS {
            let s = workload::derive(DEFAULT_SEED, Stream::Measured, i);
            let (bin, args) = workload::cold_command(w, s);
            table.push_str(&format!("{s} {}\n", digest(&bins, bin, &args)?));
        }
        write(&dir.join(format!("{}.txt", w.name())), &table)?;
    }
    let mut table = String::new();
    for k in 0..workload::HOT_SPECS {
        let (bin, args) = workload::hot_command(k);
        table.push_str(&format!("{} {}\n", workload::hot_spec(k), digest(&bins, bin, &args)?));
    }
    for bin in workload::MISS_EXPERIMENTS {
        table.push_str(&format!("{bin} {}\n", digest(&bins, bin, &[])?));
    }
    write(&dir.join("serving.txt"), &table)
}

fn digest(bins: &Bins, bin: &str, args: &[String]) -> Result<String, String> {
    let out = Command::new(bins.path(bin))
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{bin} {} failed ({})", args.join(" "), out.status));
    }
    Ok(sha256::hex(&out.stdout))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
