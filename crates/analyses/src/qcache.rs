//! Content-hash-keyed analysis-result cache.
//!
//! No front end uses this module: measured against recomputing, a
//! miss + store + hit pass cost about five times the ranking it saved,
//! so `lowutil` and `lowutil serve` rank directly (the daemon memoises
//! one ranking per aggregate generation in memory). [`QueryCache`] and
//! [`CacheKey`] stay only because the perfbench harness still times
//! them (`analyses.qcache_*`); they go when its rows do.
//!
//! A ranking is a pure function of `(graph content, engine, analysis
//! params)`, so once a graph has a content hash
//! ([`lowutil_core::store::content_hash`]) its ranked structures can be
//! memoized on disk. Entries are self-describing text files under one
//! directory, named `{content_hash}-{engine}-{params}.rank`. `f64`
//! aggregates are serialized as `to_bits` hex, so a hit reproduces the
//! ranking *exactly*. Any parse problem (truncation, stale version,
//! hand edits) is treated as a miss, never an error.

use crate::batch::EngineChoice;
use crate::cost::{CostBenefitConfig, FieldCostBenefit};
use crate::structure::StructureCostBenefit;
use lowutil_core::{fnv1a64, FieldKey, TaggedSite};
use lowutil_ir::{AllocSiteId, FieldId};
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// Identifies one memoizable ranking: the graph (by content hash), the
/// engine that computed it, and the analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// [`lowutil_core::store::content_hash`] of the graph.
    pub content_hash: u64,
    /// Which engine ranked it. Engines agree byte-for-byte, but keeping
    /// them in the key preserves "which path ran" observability and
    /// keeps the invariant testable.
    pub engine: EngineChoice,
    /// Fingerprint of the analysis parameters
    /// ([`params_fingerprint`]).
    pub params: u64,
}

impl CacheKey {
    /// Builds the key for ranking `content_hash` with `engine` under
    /// `config`.
    pub fn new(content_hash: u64, engine: EngineChoice, config: &CostBenefitConfig) -> Self {
        CacheKey {
            content_hash,
            engine,
            params: params_fingerprint(config),
        }
    }
}

/// FNV-1a 64 over the exact parameter bits — `consumer_benefit` via
/// `to_bits`, so two configs fingerprint equal iff the ranking function
/// they induce is identical.
pub fn params_fingerprint(config: &CostBenefitConfig) -> u64 {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&config.consumer_benefit.to_bits().to_le_bytes());
    bytes.extend_from_slice(&config.tree_height.to_le_bytes());
    fnv1a64(&bytes)
}

/// A directory of memoized rankings.
#[derive(Debug, Clone)]
pub struct QueryCache {
    dir: PathBuf,
}

impl QueryCache {
    /// Wraps `dir` (created lazily on first [`store`](QueryCache::store)).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        QueryCache { dir: dir.into() }
    }

    /// The entry path for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{}-{:016x}.rank",
            key.content_hash,
            key.engine.name(),
            key.params
        ))
    }

    /// Loads the ranking memoized under `key`, or `None` on a miss
    /// (absent, unreadable, or malformed entry).
    pub fn load(&self, key: &CacheKey) -> Option<Vec<StructureCostBenefit>> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        parse_ranking(&text, key)
    }

    /// Memoizes `ranked` under `key`.
    ///
    /// # Errors
    /// Propagates I/O errors (the caller typically logs and continues —
    /// a failed store only costs future misses).
    pub fn store(&self, key: &CacheKey, ranked: &[StructureCostBenefit]) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(key);
        let mut out = Vec::new();
        write_ranking(&mut out, key, ranked)?;
        fs::write(&path, out)?;
        Ok(path)
    }
}

fn field_token(f: FieldKey) -> String {
    match f {
        FieldKey::Field(id) => format!("f{}", id.0),
        FieldKey::Element => "elm".to_string(),
        FieldKey::Length => "len".to_string(),
    }
}

fn parse_field_token(tok: &str) -> Option<FieldKey> {
    match tok {
        "elm" => Some(FieldKey::Element),
        "len" => Some(FieldKey::Length),
        _ => tok
            .strip_prefix('f')
            .and_then(|n| n.parse().ok())
            .map(|n| FieldKey::Field(FieldId(n))),
    }
}

fn write_ranking<W: Write>(
    mut w: W,
    key: &CacheKey,
    ranked: &[StructureCostBenefit],
) -> io::Result<()> {
    writeln!(w, "luqc 1")?;
    writeln!(
        w,
        "key {:016x} {} {:016x}",
        key.content_hash,
        key.engine.name(),
        key.params
    )?;
    for s in ranked {
        writeln!(
            w,
            "struct {} {} {:016x} {:016x} {}",
            s.root.site.0,
            s.root.slot,
            s.n_rac.to_bits(),
            s.n_rab.to_bits(),
            s.allocations
        )?;
        for m in &s.members {
            writeln!(w, "member {} {}", m.site.0, m.slot)?;
        }
        for f in &s.fields {
            writeln!(
                w,
                "field {} {} {} {} {:016x} {} {}",
                f.site.site.0,
                f.site.slot,
                field_token(f.field),
                f.rac
                    .map(|r| format!("{:016x}", r.to_bits()))
                    .unwrap_or_else(|| "-".to_string()),
                f.rab.to_bits(),
                f.writes,
                f.reads
            )?;
        }
    }
    // Trailer: without it a cleanly line-truncated entry would parse as
    // a shorter (wrong) ranking.
    writeln!(w, "end {}", ranked.len())?;
    Ok(())
}

fn parse_ranking(text: &str, key: &CacheKey) -> Option<Vec<StructureCostBenefit>> {
    let mut lines = text.lines();
    if lines.next()? != "luqc 1" {
        return None;
    }
    let expect_key = format!(
        "key {:016x} {} {:016x}",
        key.content_hash,
        key.engine.name(),
        key.params
    );
    if lines.next()? != expect_key {
        return None;
    }
    let mut out: Vec<StructureCostBenefit> = Vec::new();
    let mut ended = false;
    for line in lines {
        if ended {
            return None;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            Some("end") => {
                if toks.len() != 2 || toks[1].parse::<usize>().ok()? != out.len() {
                    return None;
                }
                ended = true;
            }
            Some("struct") => {
                if toks.len() != 6 {
                    return None;
                }
                out.push(StructureCostBenefit {
                    root: parse_site(&toks, 1)?,
                    members: Vec::new(),
                    n_rac: f64::from_bits(u64::from_str_radix(toks[3], 16).ok()?),
                    n_rab: f64::from_bits(u64::from_str_radix(toks[4], 16).ok()?),
                    fields: Vec::new(),
                    allocations: toks[5].parse().ok()?,
                });
            }
            Some("member") => {
                if toks.len() != 3 {
                    return None;
                }
                let site = parse_site(&toks, 1)?;
                out.last_mut()?.members.push(site);
            }
            Some("field") => {
                if toks.len() != 8 {
                    return None;
                }
                let f = FieldCostBenefit {
                    site: parse_site(&toks, 1)?,
                    field: parse_field_token(toks[3])?,
                    rac: if toks[4] == "-" {
                        None
                    } else {
                        Some(f64::from_bits(u64::from_str_radix(toks[4], 16).ok()?))
                    },
                    rab: f64::from_bits(u64::from_str_radix(toks[5], 16).ok()?),
                    writes: toks[6].parse().ok()?,
                    reads: toks[7].parse().ok()?,
                };
                out.last_mut()?.fields.push(f);
            }
            _ => return None,
        }
    }
    if !ended {
        return None;
    }
    Some(out)
}

fn parse_site(toks: &[&str], at: usize) -> Option<TaggedSite> {
    Some(TaggedSite {
        site: AllocSiteId(toks.get(at)?.parse().ok()?),
        slot: toks.get(at + 1)?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::rank_structures;
    use lowutil_core::{content_hash, CostGraph, CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn profile() -> CostGraph {
        let p = parse_program(
            r#"
native print/1
class List { arr n }
method main/0 {
  l = new List
  cap = 16
  a = newarray cap
  l.arr = a
  i = 0
  one = 1
  lim = 12
loop:
  if i >= lim goto done
  x = i * i
  arr = l.arr
  arr[i] = x
  i = i + one
  goto loop
done:
  n = 0
  native print(n)
  return
}
"#,
        )
        .unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).unwrap();
        prof.finish()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lowutil-qcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_is_exact() {
        let g = profile();
        let cfg = CostBenefitConfig::default();
        let ranked = rank_structures(&g, &cfg);
        let cache = QueryCache::new(tmpdir("rt"));
        let key = CacheKey::new(content_hash(&g), EngineChoice::Batch, &cfg);
        assert!(cache.load(&key).is_none(), "cold cache misses");
        cache.store(&key, &ranked).unwrap();
        let hit = cache.load(&key).expect("warm cache hits");
        assert_eq!(hit.len(), ranked.len());
        for (a, b) in ranked.iter().zip(&hit) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.members, b.members);
            assert_eq!(a.n_rac.to_bits(), b.n_rac.to_bits());
            assert_eq!(a.n_rab.to_bits(), b.n_rab.to_bits());
            assert_eq!(a.allocations, b.allocations);
            assert_eq!(a.fields.len(), b.fields.len());
            for (fa, fb) in a.fields.iter().zip(&b.fields) {
                assert_eq!(fa.site, fb.site);
                assert_eq!(fa.field, fb.field);
                assert_eq!(fa.rac.map(f64::to_bits), fb.rac.map(f64::to_bits));
                assert_eq!(fa.rab.to_bits(), fb.rab.to_bits());
                assert_eq!((fa.writes, fa.reads), (fb.writes, fb.reads));
            }
        }
    }

    #[test]
    fn key_components_invalidate() {
        let g = profile();
        let cfg = CostBenefitConfig::default();
        let ranked = rank_structures(&g, &cfg);
        let cache = QueryCache::new(tmpdir("inv"));
        let key = CacheKey::new(content_hash(&g), EngineChoice::Batch, &cfg);
        cache.store(&key, &ranked).unwrap();
        // Different hash, engine, or params each miss.
        let other_hash = CacheKey {
            content_hash: key.content_hash ^ 1,
            ..key
        };
        assert!(cache.load(&other_hash).is_none());
        let other_engine = CacheKey {
            engine: EngineChoice::Reference,
            ..key
        };
        assert!(cache.load(&other_engine).is_none());
        let other_params = CacheKey::new(
            key.content_hash,
            EngineChoice::Batch,
            &CostBenefitConfig {
                tree_height: 7,
                ..CostBenefitConfig::default()
            },
        );
        assert!(cache.load(&other_params).is_none());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let g = profile();
        let cfg = CostBenefitConfig::default();
        let ranked = rank_structures(&g, &cfg);
        let cache = QueryCache::new(tmpdir("bad"));
        let key = CacheKey::new(content_hash(&g), EngineChoice::Batch, &cfg);
        let path = cache.store(&key, &ranked).unwrap();
        let good = fs::read_to_string(&path).unwrap();
        for bad in [
            "",
            "luqc 2\n",
            "luqc 1\nkey 0 batch 0\n",
            &good[..good.len() / 2],
            &good.replace("struct", "strukt"),
        ] {
            fs::write(&path, bad).unwrap();
            assert!(cache.load(&key).is_none(), "accepted: {bad:.40}");
        }
    }
}
