//! The content-addressed schedule cache: canonical DAG hash → certified
//! schedule on disk.
//!
//! A cache entry stores the schedule in *canonical numbering* (the
//! iso-invariant numbering of [`pebble_dag::canon::CanonicalForm`]), so any
//! relabeling of a previously solved shape hits the same entry. On lookup
//! the stored moves are remapped into the request's numbering and — this is
//! the soundness invariant — **replayed through the game simulator**: a hit
//! is only served if the remapped trace validates on the request DAG at the
//! stored cost, and only with a bound ladder that is sound for the request
//! DAG (the ladder is recomputed in linear time and compared). Canonicalization is a bounded heuristic (WL refinement plus
//! capped individualization), so in the worst case two non-isomorphic DAGs
//! could share a key; the re-validation turns that worst case into a cache
//! miss, never into a wrong answer.

use crate::error::ServeError;
use pebble_dag::canon::CanonicalForm;
use pebble_dag::{Dag, NodeId};
use pebble_game::moves::{Model, PrbpMove};
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use pebble_io::store::{self, StoreEntry};
use pebble_sched::{prbp_bound_ladder, BoundSet, BoundValue, ScheduleReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory of certified schedules addressed by `(canonical key, r)`.
///
/// Thread-safe: lookups and insertions may race freely; insertion is atomic
/// (write-temp-then-rename) and a torn or stale read surfaces as a checksum
/// failure, i.e. a miss.
pub struct ScheduleCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    revalidation_failures: AtomicU64,
}

/// A validated cache hit: the certified report plus the replayable trace in
/// the *request's* node numbering.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The certified report reconstructed from the stored entry.
    pub report: ScheduleReport,
    /// The schedule, remapped to the request DAG and simulator-validated.
    pub trace: PrbpTrace,
}

/// A snapshot of cache activity since the cache was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a validated stored entry.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries written (including keep-better overwrites).
    pub insertions: u64,
    /// `.sched` files currently on disk.
    pub entries: u64,
    /// Misses where an entry existed on disk but failed the shape check or
    /// simulator re-validation (a subset of `misses`).
    pub revalidation_failures: u64,
}

/// How a cache lookup resolved, distinguishing the two kinds of miss:
/// nothing stored versus a stored entry that failed re-validation (the
/// latter is the "cold-solve fallback" the serving layer counts).
#[derive(Debug)]
pub enum LookupOutcome {
    /// A stored entry re-validated on the request DAG.
    Hit(Box<CacheHit>),
    /// No entry exists for this `(canonical key, r)`.
    MissAbsent,
    /// An entry exists but failed the shape check, checksum, remap,
    /// simulator re-validation or bound check.
    MissInvalid,
}

impl ScheduleCache {
    /// Open (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ScheduleCache, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Cache(format!("creating cache dir {}: {e}", dir.display())))?;
        Ok(ScheduleCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            revalidation_failures: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Activity counters plus the current on-disk entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.entry_count(),
            revalidation_failures: self.revalidation_failures.load(Ordering::Relaxed),
        }
    }

    /// Count the `.sched` files currently stored.
    pub fn entry_count(&self) -> u64 {
        match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "sched"))
                .count() as u64,
            Err(_) => 0,
        }
    }

    fn entry_path(&self, form: &CanonicalForm, r: usize) -> PathBuf {
        self.dir.join(format!("{}-r{r}.sched", form.key.hex()))
    }

    /// Look up a certified schedule for `dag` at cache size `r`.
    ///
    /// Returns `Some` only when a stored entry exists for the canonical key,
    /// matches the request's shape (`r`, node and edge counts, model), its
    /// moves — remapped into the request numbering — **replay through the
    /// simulator at exactly the stored cost**, and its bound ladder is the
    /// request DAG's own (a `compose` entry at most its `load-count`).
    /// Anything less is a miss.
    pub fn lookup(&self, dag: &Dag, form: &CanonicalForm, r: usize) -> Option<CacheHit> {
        match self.lookup_outcome(dag, form, r) {
            LookupOutcome::Hit(hit) => Some(*hit),
            LookupOutcome::MissAbsent | LookupOutcome::MissInvalid => None,
        }
    }

    /// [`ScheduleCache::lookup`] with the miss kind preserved. Updates the
    /// per-cache counters, the process-global cache metrics, and (when a
    /// trace sink is installed) emits a `cache_lookup` event.
    pub fn lookup_outcome(&self, dag: &Dag, form: &CanonicalForm, r: usize) -> LookupOutcome {
        // Existence is sampled before the read so a racing insert cannot
        // turn a plain absent-miss into a spurious "revalidation failure".
        let existed = self.entry_path(form, r).exists();
        let m = crate::obs::metrics();
        let (outcome, label) = match self.lookup_inner(dag, form, r) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                m.cache_hits.inc();
                (LookupOutcome::Hit(Box::new(hit)), "hit")
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                m.cache_misses.inc();
                if existed {
                    self.revalidation_failures.fetch_add(1, Ordering::Relaxed);
                    m.cache_revalidation_failures.inc();
                    (LookupOutcome::MissInvalid, "miss_invalid")
                } else {
                    (LookupOutcome::MissAbsent, "miss_absent")
                }
            }
        };
        if pebble_obs::trace::enabled() {
            pebble_obs::trace::emit(pebble_obs::trace::TraceEvent::CacheLookup {
                outcome: label.to_string(),
            });
        }
        outcome
    }

    fn lookup_inner(&self, dag: &Dag, form: &CanonicalForm, r: usize) -> Option<CacheHit> {
        let entry = store::read_file(&self.entry_path(form, r)).ok()?;
        if entry.key != form.key.0
            || entry.model != Model::Prbp
            || entry.r != r as u64
            || entry.nodes != dag.node_count() as u64
            || entry.edges != dag.edge_count() as u64
        {
            return None;
        }
        // Canonical index -> request NodeId.
        let inverse = form.inverse();
        let back = |v: NodeId| -> Option<NodeId> { inverse.get(v.index()).copied() };
        let mut moves = Vec::with_capacity(entry.moves.len());
        for mv in &entry.moves {
            moves.push(match *mv {
                PrbpMove::Save(v) => PrbpMove::Save(back(v)?),
                PrbpMove::Load(v) => PrbpMove::Load(back(v)?),
                PrbpMove::PartialCompute { from, to } => PrbpMove::PartialCompute {
                    from: back(from)?,
                    to: back(to)?,
                },
                PrbpMove::Delete(v) => PrbpMove::Delete(back(v)?),
                PrbpMove::Clear(v) => PrbpMove::Clear(back(v)?),
            });
        }
        let trace = PrbpTrace { moves };
        // Soundness gate: never serve a stored schedule that does not replay
        // on *this* DAG at the stored cost.
        let cost = trace.validate(dag, PrbpConfig::new(r)).ok()?;
        if cost as u64 != entry.cost || !bounds_hold(&entry, dag, r) {
            return None;
        }
        let report = ScheduleReport {
            model: entry.model.short_name().to_string(),
            r,
            scheduler: entry.scheduler.clone(),
            cost,
            moves: trace.moves.len(),
            bounds: entry
                .bounds
                .iter()
                .map(|(name, value)| BoundValue {
                    name: name.clone(),
                    value: *value as usize,
                })
                .collect(),
            best_bound: entry.best_bound as usize,
        };
        Some(CacheHit { report, trace })
    }

    /// Store a certified schedule, keyed by `form` and `r`. The trace is in
    /// the request numbering and gets stored canonically. Keep-better: an
    /// existing entry with equal or lower cost is left untouched (returns
    /// `Ok(false)`).
    pub fn insert(
        &self,
        dag: &Dag,
        form: &CanonicalForm,
        r: usize,
        report: &ScheduleReport,
        trace: &PrbpTrace,
    ) -> Result<bool, ServeError> {
        let path = self.entry_path(form, r);
        if let Ok(existing) = store::read_file(&path) {
            if existing.cost <= report.cost as u64 {
                return Ok(false);
            }
        }
        // Request NodeId -> canonical index, stored as a canonical NodeId.
        let fwd = |v: NodeId| NodeId::from_index(form.to_canonical(v));
        let moves = trace
            .moves
            .iter()
            .map(|mv| match *mv {
                PrbpMove::Save(v) => PrbpMove::Save(fwd(v)),
                PrbpMove::Load(v) => PrbpMove::Load(fwd(v)),
                PrbpMove::PartialCompute { from, to } => PrbpMove::PartialCompute {
                    from: fwd(from),
                    to: fwd(to),
                },
                PrbpMove::Delete(v) => PrbpMove::Delete(fwd(v)),
                PrbpMove::Clear(v) => PrbpMove::Clear(fwd(v)),
            })
            .collect();
        let entry = StoreEntry {
            key: form.key.0,
            model: Model::Prbp,
            r: r as u64,
            nodes: dag.node_count() as u64,
            edges: dag.edge_count() as u64,
            cost: report.cost as u64,
            best_bound: report.best_bound as u64,
            scheduler: report.scheduler.clone(),
            bounds: report
                .bounds
                .iter()
                .map(|b| (b.name.clone(), b.value as u64))
                .collect(),
            moves,
        };
        store::write_file(&path, &entry)
            .map_err(|e| ServeError::Cache(format!("writing {}: {e}", path.display())))?;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        crate::obs::metrics().cache_insertions.inc();
        Ok(true)
    }
}

/// Whether `entry`'s bound half is sound for `dag`: every ladder entry but
/// `compose` equals the ladder `dag` itself gets (linear time), each
/// `compose` entry is at most `dag`'s `load-count`, which makes it
/// admissible by transitivity, and `best_bound` is that `load-count`.
fn bounds_hold(entry: &StoreEntry, dag: &Dag, r: usize) -> bool {
    let (ladder, load) = prbp_bound_ladder(dag, r, BoundSet::auto_for(dag));
    let load = load as u64;
    let mut own = ladder.iter();
    let entries_hold = entry.bounds.iter().all(|(name, value)| {
        if name == "compose" {
            *value <= load
        } else {
            own.next()
                .is_some_and(|b| b.name == *name && b.value as u64 == *value)
        }
    });
    entries_hold && own.next().is_none() && entry.best_bound == load
}

/// What a warm pass over a directory of instances did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmSummary {
    /// Instance files considered.
    pub files: usize,
    /// Entries written into the cache.
    pub inserted: usize,
    /// Instances already cached at an equal or better cost.
    pub skipped: usize,
    /// Files that failed to parse or schedule.
    pub failed: usize,
}

/// Precompute the cache from a directory of instance files (any `pebble-io`
/// format, recognised by extension). Each instance goes through the
/// certified compose solve ([`pebble_sched::compose_certified`]) that cold
/// `serve` requests use, here with the default configuration and no
/// deadline, and is inserted under its canonical key. Files with
/// unrecognised extensions are ignored; per-file failures are counted, not
/// fatal.
pub fn warm_from_dir(
    cache: &ScheduleCache,
    dir: &Path,
    r: usize,
) -> Result<WarmSummary, ServeError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| ServeError::Cache(format!("reading instance dir {}: {e}", dir.display())))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && pebble_io::Format::from_path(&p.to_string_lossy()).is_some())
        .collect();
    paths.sort();

    let mut summary = WarmSummary::default();
    for path in paths {
        summary.files += 1;
        let Ok(text) = std::fs::read_to_string(&path) else {
            summary.failed += 1;
            continue;
        };
        let format = pebble_io::Format::from_path(&path.to_string_lossy())
            .unwrap_or_else(|| pebble_io::Format::sniff(&text));
        let Ok(dag) = pebble_io::parse(&text, format) else {
            summary.failed += 1;
            continue;
        };
        let Ok(certified) = pebble_sched::compose_certified(&dag, r, &Default::default()) else {
            summary.failed += 1;
            continue;
        };
        let form = pebble_dag::canon::canonical_form(&dag);
        match cache.insert(&dag, &form, r, &certified.report, &certified.outcome.trace)? {
            true => summary.inserted += 1,
            false => summary.skipped += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::canon::canonical_form;
    use pebble_dag::generators::fft;
    use pebble_dag::DagBuilder;
    use pebble_sched::{certify_prbp_with, BoundSet, FurthestInFuture};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prbp-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schedule(dag: &Dag, r: usize) -> (ScheduleReport, PrbpTrace) {
        let order = pebble_sched::order::dfs_postorder(dag);
        let trace = pebble_sched::greedy_prbp(dag, r, &order, &mut FurthestInFuture)
            .expect("greedy schedules every valid dag");
        let report = certify_prbp_with(dag, r, &trace, "greedy:belady:dfs", BoundSet::Full)
            .expect("greedy trace validates");
        (report, trace)
    }

    #[test]
    fn insert_then_lookup_roundtrips_and_validates() {
        let f = fft(8);
        let form = canonical_form(&f.dag);
        let (report, trace) = schedule(&f.dag, 4);
        let cache = ScheduleCache::open(scratch("roundtrip")).unwrap();

        assert!(cache.lookup(&f.dag, &form, 4).is_none());
        assert!(cache.insert(&f.dag, &form, 4, &report, &trace).unwrap());
        let hit = cache.lookup(&f.dag, &form, 4).expect("hit after insert");
        assert_eq!(hit.report.cost, report.cost);
        assert_eq!(hit.report.best_bound, report.best_bound);
        assert_eq!(
            hit.trace.validate(&f.dag, PrbpConfig::new(4)).unwrap(),
            report.cost
        );
        // Different r misses.
        assert!(cache.lookup(&f.dag, &form, 8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.insertions, stats.entries), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn relabeled_isomorph_hits_the_same_entry() {
        // The same shape built with nodes inserted in a different order must
        // hit the entry stored for the original numbering, and the remapped
        // trace must validate on the *relabeled* DAG.
        let f = fft(8);
        let n = f.dag.node_count();
        let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let mut b = DagBuilder::new();
        let ids = b.add_nodes(n);
        for u in f.dag.nodes() {
            for v in f.dag.successors(u) {
                b.add_edge(ids[perm[u.index()]], ids[perm[v.index()]]);
            }
        }
        let relabeled = b.build().expect("valid dag");

        let cache = ScheduleCache::open(scratch("iso")).unwrap();
        let form = canonical_form(&f.dag);
        let (report, trace) = schedule(&f.dag, 4);
        cache.insert(&f.dag, &form, 4, &report, &trace).unwrap();

        let relabeled_form = canonical_form(&relabeled);
        assert_eq!(form.key, relabeled_form.key, "iso-invariant key");
        let hit = cache
            .lookup(&relabeled, &relabeled_form, 4)
            .expect("relabeled isomorph hits");
        assert_eq!(hit.report.cost, report.cost);
        assert_eq!(
            hit.trace.validate(&relabeled, PrbpConfig::new(4)).unwrap(),
            report.cost
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn forged_bounds_are_never_served() {
        // Each entry's trace replays at its cost; only the bounds lie.
        let f = fft(8);
        let form = canonical_form(&f.dag);
        let (report, trace) = schedule(&f.dag, 4);
        let load = report.best_bound;
        let forge = |bounds: &[(&str, usize)], best_bound| ScheduleReport {
            bounds: bounds
                .iter()
                .map(|&(name, value)| BoundValue {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            best_bound,
            ..report.clone()
        };
        let ladder = [
            ("load-count", load),
            ("s-dominator", load),
            ("s-edge", load),
        ];
        let with_compose = |value| {
            let mut bounds = ladder.to_vec();
            bounds.push(("compose", value));
            bounds
        };
        let forged = [
            forge(&[("load-count", load + 1), ladder[1], ladder[2]], load + 1),
            forge(&with_compose(load + 1), load + 1),
            forge(&ladder, load + 1),
            forge(&ladder[..1], load),
        ];
        for (i, forged) in forged.iter().enumerate() {
            let cache = ScheduleCache::open(scratch(&format!("forged{i}"))).unwrap();
            cache.insert(&f.dag, &form, 4, forged, &trace).unwrap();
            match cache.lookup_outcome(&f.dag, &form, 4) {
                LookupOutcome::MissInvalid => {}
                other => panic!("served {:?}: {other:?}", forged.bounds),
            }
            let _ = std::fs::remove_dir_all(cache.dir());
        }
        // A `compose` entry at most the load-count is served as stored.
        let honest = forge(&with_compose(load), load);
        let cache = ScheduleCache::open(scratch("honest-compose")).unwrap();
        cache.insert(&f.dag, &form, 4, &honest, &trace).unwrap();
        let hit = cache.lookup(&f.dag, &form, 4).expect("a sound entry hits");
        assert_eq!(hit.report, honest);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keep_better_refuses_worse_overwrites() {
        let f = fft(8);
        let form = canonical_form(&f.dag);
        let (report, trace) = schedule(&f.dag, 4);
        let cache = ScheduleCache::open(scratch("keepbetter")).unwrap();
        assert!(cache.insert(&f.dag, &form, 4, &report, &trace).unwrap());
        // Same cost again: not overwritten.
        assert!(!cache.insert(&f.dag, &form, 4, &report, &trace).unwrap());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entry_is_a_miss_not_an_error() {
        let f = fft(8);
        let form = canonical_form(&f.dag);
        let (report, trace) = schedule(&f.dag, 4);
        let cache = ScheduleCache::open(scratch("corrupt")).unwrap();
        cache.insert(&f.dag, &form, 4, &report, &trace).unwrap();
        let path = cache.entry_path(&form, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match cache.lookup_outcome(&f.dag, &form, 4) {
            LookupOutcome::MissInvalid => {}
            other => panic!("expected MissInvalid, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.revalidation_failures, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
