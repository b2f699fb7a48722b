//! Inputs, made from `--seed` before anything is timed: the `urlid`
//! release binary, the corpus and model it generates, trains and packs,
//! and the URL pools the workloads draw from.

use crate::stats::SplitMix;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use urlid::corpus::UrlGenerator;

/// Corpus scale of the model: the CI serve-smoke scale.
pub const CORPUS_SCALE: &str = "0.005";
/// The model recipe (`urlid train` defaults: word features + naive Bayes).
pub const RECIPE: &str = "words+nb";

/// Root of the checkout that holds this package.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Build the release `urlid` binary from the checkout and return its path.
pub fn build_urlid(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "urlid-serve", "--bin", "urlid"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building urlid failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("urlid");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built urlid not found at {}", bin.display()))
    }
}

fn run(urlid: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(urlid)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run urlid: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "urlid {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Generate the corpus, train the model and pack it to `.urlm` under
/// `dir`, all with the program's own CLI. Returns the `.urlm` path.
pub fn model(urlid: &Path, dir: &Path, seed: u64) -> Result<PathBuf, String> {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (corpus, json, urlm) = (path("corpus"), path("model.json"), path("model.urlm"));
    let seed = seed.to_string();
    run(
        urlid,
        &[
            "generate",
            "--out",
            &corpus,
            "--seed",
            &seed,
            "--scale",
            CORPUS_SCALE,
        ],
    )?;
    let train = format!("{corpus}/odp-train.json");
    run(urlid, &["train", "--data", &train, "--out", &json])?;
    run(urlid, &["pack", "--model", &json, "--out", &urlm])?;
    let _ = std::fs::remove_dir_all(&corpus);
    Ok(PathBuf::from(urlm))
}

/// A URL pool stored as one string plus end offsets: a million URLs
/// cost ~50 MB this way instead of ~100 MB as `Vec<String>`.
pub struct Pool {
    text: String,
    ends: Vec<usize>,
}

impl Pool {
    /// `n` crawl-frontier URLs (`UrlGenerator::crawl_frontier_mix`),
    /// generated in chunks with seeds derived from `seed` and `tag`.
    pub fn frontier(seed: u64, tag: u64, n: usize) -> Pool {
        const CHUNK: usize = 50_000;
        let mut seeds = SplitMix::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut pool = Pool {
            text: String::new(),
            ends: Vec::with_capacity(n),
        };
        while pool.len() < n {
            let take = CHUNK.min(n - pool.len());
            for url in UrlGenerator::crawl_frontier_mix(seeds.next_u64(), take) {
                pool.text.push_str(&url);
                pool.ends.push(pool.text.len());
            }
        }
        pool
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }
}
