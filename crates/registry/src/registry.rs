//! The model registry: `name@version` → [`CompiledModel`], with
//! atomically swappable aliases and memory-budgeted eviction.
//!
//! # Versioned aliases
//!
//! Every [`install`](ModelRegistry::install) registers a new
//! *version* of a name — versions are sequential per name (`v1`,
//! `v2`, …) — and atomically retargets the name's *alias* to it.
//! Clients that address a bare name always see exactly one version:
//! the alias is retargeted under the registry lock, so a stream of
//! [`resolve`](ModelRegistry::resolve) calls racing a swap observes
//! either the old or the new version, never a mix and never a torn
//! state. Clients that address `name@vN` pin that exact version.
//!
//! # Load, warmup, flip
//!
//! `install` runs a *warmup* before the new version becomes visible:
//! every interned kernel plan is force-compiled and one sequential
//! posterior is answered, so the first production query against the
//! new version never pays compile latency and a model that cannot
//! answer queries never becomes an alias target. The expensive part
//! (BIF parse → junction tree → plan compile → warmup) runs on the
//! calling thread — a TCP connection thread in the serving stack,
//! never a shard dispatcher — and the registry lock is only taken for
//! the final pointer flip.
//!
//! # Eviction: unlink, never drop
//!
//! With a byte budget ([`ModelRegistry::with_budget_mb`]), installing
//! past the budget evicts least-recently-resolved versions — but an
//! eviction only *unlinks* the version from the registry (it stops
//! being resolvable). The `Arc<ModelHandle>` itself stays alive for as
//! long as any open incremental session or in-flight query pins it;
//! the registry keeps a [`Weak`] so those zombie bytes remain visible
//! in [`RegistryStats`] until the last pin drops. The version an alias
//! currently targets is never evicted.

use crate::names::ModelNames;
use evprop_core::{CompiledModel, InferenceSession, SequentialEngine};
use evprop_potential::{EvidenceSet, VarId};
use evprop_taskgraph::PlanId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Errors surfaced by registry operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The referenced model name is not registered.
    UnknownModel(String),
    /// The referenced version of a known name is not resident
    /// (never installed, evicted, or unloaded).
    UnknownVersion {
        /// The model name.
        name: String,
        /// The missing version.
        version: u32,
    },
    /// The referenced version is mid-unload: it must not serve new
    /// work. The message is deterministic so transcripts stay stable.
    Unloading(String),
    /// A name that cannot be registered (empty, or containing `@`).
    BadName(String),
    /// The warmup query of a freshly loaded model failed; the version
    /// was not installed.
    Warmup(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            RegistryError::UnknownVersion { name, version } => {
                write!(f, "unknown model version '{name}@v{version}'")
            }
            RegistryError::Unloading(tag) => write!(f, "model_unloading: {tag}"),
            RegistryError::BadName(name) => {
                write!(
                    f,
                    "bad model name '{name}' (must be non-empty, without '@')"
                )
            }
            RegistryError::Warmup(msg) => write!(f, "model warmup failed: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One resident model version: the shared compiled artifact plus the
/// name table the wire protocol resolves requests against.
///
/// Handles are shared as `Arc<ModelHandle>`: the registry links one,
/// every in-flight query holds one for its lifetime, and every open
/// session pins one until it closes. A handle outliving its registry
/// entry (evicted or unloaded) keeps answering the queries that
/// already hold it.
pub struct ModelHandle {
    name: String,
    version: u32,
    model: Arc<CompiledModel>,
    names: Arc<dyn ModelNames + Send + Sync>,
    bytes: u64,
    served: AtomicU64,
    /// Set by `unload` before the handle is unlinked: a session open
    /// racing the unload re-checks this and backs out deterministically
    /// instead of pinning a half-dropped model.
    unloading: AtomicBool,
    /// LRU stamp: the registry tick of the most recent resolve.
    last_used: AtomicU64,
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHandle")
            .field("tag", &self.tag())
            .field("bytes", &self.bytes)
            .field("served", &self.served.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ModelHandle {
    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version number (sequential per name, starting at 1).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The canonical `name@vN` tag.
    pub fn tag(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }

    /// The compiled model.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The model's symbolic name table.
    pub fn names(&self) -> &Arc<dyn ModelNames + Send + Sync> {
        &self.names
    }

    /// Resident bytes of the compiled artifact (clique tables, scratch
    /// buffers, compiled kernel plans) as accounted at install time.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Queries answered against this version.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Records one answered query (called by dispatchers).
    pub fn record_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether an unload is in progress or complete for this version.
    pub fn is_unloading(&self) -> bool {
        self.unloading.load(Ordering::SeqCst)
    }
}

/// Counter snapshot of one registered version, for
/// [`ModelRegistry::list`].
#[derive(Clone, Debug)]
pub struct VersionInfo {
    /// The version number.
    pub version: u32,
    /// Resident bytes.
    pub bytes: u64,
    /// Queries answered against this version.
    pub served: u64,
    /// Whether something outside the registry (a session, an in-flight
    /// query) currently holds the handle.
    pub pinned: bool,
}

/// One registered name and its resident versions, for
/// [`ModelRegistry::list`]. Versions are sorted ascending.
#[derive(Clone, Debug)]
pub struct ModelInfo {
    /// The model name.
    pub name: String,
    /// The version the bare-name alias currently targets.
    pub alias: u32,
    /// Resident versions, ascending.
    pub versions: Vec<VersionInfo>,
}

/// Aggregate registry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Versions ever installed.
    pub loads: u64,
    /// Versions evicted by the memory budget.
    pub evictions: u64,
    /// Explicit alias retargets ([`ModelRegistry::swap`]).
    pub swaps: u64,
    /// Names currently registered.
    pub models: usize,
    /// Versions currently resolvable.
    pub versions: usize,
    /// Bytes of all resolvable versions.
    pub resident_bytes: u64,
    /// Unlinked (evicted/unloaded) versions still pinned alive.
    pub unlinked: usize,
    /// Bytes of those still-pinned unlinked versions.
    pub unlinked_bytes: u64,
    /// Queries answered across all resolvable versions.
    pub served: u64,
}

struct NameEntry {
    versions: BTreeMap<u32, Arc<ModelHandle>>,
    alias: u32,
    next_version: u32,
}

struct Inner {
    names: HashMap<String, NameEntry>,
    /// Monotone resolve clock backing the LRU stamps.
    tick: u64,
    /// Evicted or unloaded versions that may still be pinned; swept on
    /// every stats/list call.
    unlinked: Vec<Weak<ModelHandle>>,
}

/// The registry proper. See the [module docs](self).
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    budget_bytes: Option<u64>,
    loads: AtomicU64,
    evictions: AtomicU64,
    swaps: AtomicU64,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ModelRegistry")
            .field("models", &s.models)
            .field("versions", &s.versions)
            .field("resident_bytes", &s.resident_bytes)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry with no memory budget.
    pub fn new() -> Self {
        ModelRegistry {
            inner: Mutex::new(Inner {
                names: HashMap::new(),
                tick: 0,
                unlinked: Vec::new(),
            }),
            budget_bytes: None,
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// Sets the resident-byte budget (builder-style); installs beyond
    /// it evict least-recently-resolved non-alias versions.
    pub fn with_budget_mb(mut self, mb: u64) -> Self {
        self.budget_bytes = Some(mb.saturating_mul(1024 * 1024));
        self
    }

    /// The configured budget in bytes, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Installs a compiled model as the next version of `name` and
    /// retargets the alias to it. Runs the warmup (force-compiles every
    /// interned plan, answers one sequential posterior) *before* the
    /// version becomes visible; the registry lock is only held for the
    /// alias flip. Returns the installed handle.
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadName`] for empty names or names containing
    /// `@`; [`RegistryError::Warmup`] when the model cannot answer its
    /// warmup query (nothing is installed then).
    pub fn install(
        &self,
        name: &str,
        model: Arc<CompiledModel>,
        names: Arc<dyn ModelNames + Send + Sync>,
    ) -> Result<Arc<ModelHandle>, RegistryError> {
        if name.is_empty() || name.contains('@') {
            return Err(RegistryError::BadName(name.to_string()));
        }
        warmup(&model)?;
        let bytes = model.resident_bytes();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.names.entry(name.to_string()).or_insert(NameEntry {
            versions: BTreeMap::new(),
            alias: 0,
            next_version: 1,
        });
        let version = entry.next_version;
        entry.next_version += 1;
        let handle = Arc::new(ModelHandle {
            name: name.to_string(),
            version,
            model,
            names,
            bytes,
            served: AtomicU64::new(0),
            unloading: AtomicBool::new(false),
            last_used: AtomicU64::new(tick),
        });
        entry.versions.insert(version, Arc::clone(&handle));
        entry.alias = version;
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.evict_locked(&mut inner);
        Ok(handle)
    }

    /// Resolves `spec` — a bare name (the alias) or an exact
    /// `name@vN` tag — refreshing the version's LRU stamp.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] / [`UnknownVersion`] when the
    /// spec does not address a resolvable version;
    /// [`RegistryError::Unloading`] when the version is mid-unload.
    ///
    /// [`UnknownVersion`]: RegistryError::UnknownVersion
    pub fn resolve(&self, spec: &str) -> Result<Arc<ModelHandle>, RegistryError> {
        let (name, version) = match spec.split_once('@') {
            None => (spec, None),
            Some((name, v)) => {
                let digits = v.strip_prefix('v').unwrap_or(v);
                let parsed: u32 = digits
                    .parse()
                    .map_err(|_| RegistryError::UnknownModel(spec.to_string()))?;
                (name, Some(parsed))
            }
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .names
            .get(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        let version = version.unwrap_or(entry.alias);
        let handle = entry
            .versions
            .get(&version)
            .ok_or(RegistryError::UnknownVersion {
                name: name.to_string(),
                version,
            })?;
        if handle.is_unloading() {
            return Err(RegistryError::Unloading(handle.tag()));
        }
        handle.last_used.store(tick, Ordering::Relaxed);
        Ok(Arc::clone(handle))
    }

    /// Retargets `name`'s alias to an already-resident `version`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] / [`UnknownVersion`] when the
    /// target is not resident.
    ///
    /// [`UnknownVersion`]: RegistryError::UnknownVersion
    pub fn swap(&self, name: &str, version: u32) -> Result<Arc<ModelHandle>, RegistryError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .names
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        let handle = entry
            .versions
            .get(&version)
            .ok_or(RegistryError::UnknownVersion {
                name: name.to_string(),
                version,
            })?;
        let handle = Arc::clone(handle);
        entry.alias = version;
        handle.last_used.store(tick, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Unloads one version of `name` (or, with `None`, every version
    /// and the name itself). Each unloaded handle is flagged
    /// *unloading* before it is unlinked, so a session open racing the
    /// unload observes the flag and backs out; pinned handles stay
    /// alive until their last pin drops. When the alias target is
    /// unloaded and other versions remain, the alias retargets to the
    /// highest remaining version. Returns the unloaded tags.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] / [`UnknownVersion`] when
    /// nothing matches.
    ///
    /// [`UnknownVersion`]: RegistryError::UnknownVersion
    pub fn unload(&self, name: &str, version: Option<u32>) -> Result<Vec<String>, RegistryError> {
        let mut inner = self.inner.lock();
        let entry = inner
            .names
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        let victims: Vec<u32> = match version {
            Some(v) => {
                if !entry.versions.contains_key(&v) {
                    return Err(RegistryError::UnknownVersion {
                        name: name.to_string(),
                        version: v,
                    });
                }
                vec![v]
            }
            None => entry.versions.keys().copied().collect(),
        };
        let mut tags = Vec::with_capacity(victims.len());
        let mut unlinked = Vec::with_capacity(victims.len());
        for v in victims {
            let handle = entry.versions.remove(&v).expect("victim is resident");
            handle.unloading.store(true, Ordering::SeqCst);
            tags.push(handle.tag());
            unlinked.push(Arc::downgrade(&handle));
        }
        if entry.versions.is_empty() {
            inner.names.remove(name);
        } else if !entry.versions.contains_key(&entry.alias) {
            entry.alias = *entry.versions.keys().next_back().expect("non-empty");
        }
        inner.unlinked.extend(unlinked);
        Ok(tags)
    }

    /// Point-in-time listing of every registered name and its resident
    /// versions, sorted by name (then version) for deterministic
    /// transcripts.
    pub fn list(&self) -> Vec<ModelInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<ModelInfo> = inner
            .names
            .iter()
            .map(|(name, entry)| ModelInfo {
                name: name.clone(),
                alias: entry.alias,
                versions: entry
                    .versions
                    .values()
                    .map(|h| VersionInfo {
                        version: h.version,
                        bytes: h.bytes,
                        served: h.served(),
                        pinned: Arc::strong_count(h) > 1,
                    })
                    .collect(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Aggregate counters; sweeps dead unlinked weak handles.
    pub fn stats(&self) -> RegistryStats {
        let mut inner = self.inner.lock();
        inner.unlinked.retain(|w| w.strong_count() > 0);
        let mut resident_bytes = 0u64;
        let mut versions = 0usize;
        let mut served = 0u64;
        for entry in inner.names.values() {
            for h in entry.versions.values() {
                resident_bytes += h.bytes;
                versions += 1;
                served += h.served();
            }
        }
        let mut unlinked_bytes = 0u64;
        for w in &inner.unlinked {
            if let Some(h) = w.upgrade() {
                unlinked_bytes += h.bytes;
            }
        }
        RegistryStats {
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            models: inner.names.len(),
            versions,
            resident_bytes,
            unlinked: inner.unlinked.len(),
            unlinked_bytes,
            served,
        }
    }

    /// Evicts least-recently-resolved non-alias versions until the
    /// resident bytes fit the budget. Eviction unlinks only — a pinned
    /// handle keeps serving whoever holds it, tracked via `unlinked`.
    fn evict_locked(&self, inner: &mut Inner) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        loop {
            let resident: u64 = inner
                .names
                .values()
                .flat_map(|e| e.versions.values())
                .map(|h| h.bytes)
                .sum();
            if resident <= budget {
                return;
            }
            // LRU victim among versions no alias currently targets.
            let victim = inner
                .names
                .iter()
                .flat_map(|(name, e)| {
                    e.versions
                        .values()
                        .filter(|h| h.version != e.alias)
                        .map(move |h| {
                            (name.clone(), h.version, h.last_used.load(Ordering::Relaxed))
                        })
                })
                .min_by_key(|&(_, _, used)| used);
            let Some((name, version, _)) = victim else {
                return; // only alias targets left: over budget, but safe
            };
            let entry = inner.names.get_mut(&name).expect("victim's name exists");
            let handle = entry.versions.remove(&version).expect("victim is resident");
            inner.unlinked.push(Arc::downgrade(&handle));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Force-compiles every interned kernel plan of the model's sum-product
/// graph and answers one sequential posterior, so the version is
/// query-ready before its alias flips.
fn warmup(model: &Arc<CompiledModel>) -> Result<(), RegistryError> {
    let plans = model.graph().plans();
    for i in 0..plans.len() {
        let _ = plans.get(PlanId(i as u32));
    }
    let session = InferenceSession::from_model(Arc::clone(model));
    session
        .posterior(&SequentialEngine, VarId(0), &EvidenceSet::new())
        .map_err(|e| RegistryError::Warmup(e.to_string()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::NumericNames;
    use evprop_bayesnet::networks;

    fn compiled(net: &evprop_bayesnet::BayesianNetwork) -> Arc<CompiledModel> {
        Arc::new(CompiledModel::from_network(net).unwrap())
    }

    fn install_asia(reg: &ModelRegistry, name: &str) -> Arc<ModelHandle> {
        let net = networks::asia();
        let names = Arc::new(NumericNames::of(&net));
        reg.install(name, compiled(&net), names).unwrap()
    }

    #[test]
    fn install_assigns_sequential_versions_and_flips_alias() {
        let reg = ModelRegistry::new();
        let v1 = install_asia(&reg, "asia");
        assert_eq!((v1.name(), v1.version()), ("asia", 1));
        assert_eq!(v1.tag(), "asia@v1");
        assert_eq!(reg.resolve("asia").unwrap().version(), 1);
        let v2 = install_asia(&reg, "asia");
        assert_eq!(v2.version(), 2);
        // The alias now targets v2; the exact tag still pins v1.
        assert_eq!(reg.resolve("asia").unwrap().version(), 2);
        assert_eq!(reg.resolve("asia@v1").unwrap().version(), 1);
        assert_eq!(reg.resolve("asia@1").unwrap().version(), 1);
        let stats = reg.stats();
        assert_eq!((stats.loads, stats.models, stats.versions), (2, 1, 2));
    }

    #[test]
    fn resolve_rejects_unknown_specs() {
        let reg = ModelRegistry::new();
        install_asia(&reg, "asia");
        assert_eq!(
            reg.resolve("nope").unwrap_err(),
            RegistryError::UnknownModel("nope".into())
        );
        assert_eq!(
            reg.resolve("asia@v9").unwrap_err(),
            RegistryError::UnknownVersion {
                name: "asia".into(),
                version: 9
            }
        );
        assert!(matches!(
            reg.resolve("asia@vX").unwrap_err(),
            RegistryError::UnknownModel(_)
        ));
    }

    #[test]
    fn bad_names_are_rejected() {
        let reg = ModelRegistry::new();
        let net = networks::asia();
        let names: Arc<dyn ModelNames + Send + Sync> = Arc::new(NumericNames::of(&net));
        for bad in ["", "a@b"] {
            assert!(matches!(
                reg.install(bad, compiled(&net), Arc::clone(&names)),
                Err(RegistryError::BadName(_))
            ));
        }
    }

    #[test]
    fn swap_retargets_and_counts() {
        let reg = ModelRegistry::new();
        install_asia(&reg, "asia");
        install_asia(&reg, "asia");
        assert_eq!(reg.resolve("asia").unwrap().version(), 2);
        let back = reg.swap("asia", 1).unwrap();
        assert_eq!(back.version(), 1);
        assert_eq!(reg.resolve("asia").unwrap().version(), 1);
        assert!(matches!(
            reg.swap("asia", 9),
            Err(RegistryError::UnknownVersion { .. })
        ));
        assert!(matches!(
            reg.swap("nope", 1),
            Err(RegistryError::UnknownModel(_))
        ));
        assert_eq!(reg.stats().swaps, 1);
    }

    #[test]
    fn unload_marks_retargets_and_removes() {
        let reg = ModelRegistry::new();
        let v1 = install_asia(&reg, "asia");
        install_asia(&reg, "asia");
        install_asia(&reg, "asia");
        // Unloading the alias target retargets to the highest survivor.
        assert_eq!(reg.unload("asia", Some(3)).unwrap(), vec!["asia@v3"]);
        assert_eq!(reg.resolve("asia").unwrap().version(), 2);
        // The unloaded-but-pinned v1 handle still flags unloading on
        // exact resolve… after it is unloaded.
        assert!(!v1.is_unloading());
        assert_eq!(reg.unload("asia", Some(1)).unwrap(), vec!["asia@v1"]);
        assert!(v1.is_unloading());
        assert!(matches!(
            reg.resolve("asia@v1"),
            Err(RegistryError::UnknownVersion { .. })
        ));
        // Unloading the whole name removes it.
        reg.unload("asia", None).unwrap();
        assert!(matches!(
            reg.resolve("asia"),
            Err(RegistryError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.unload("asia", None),
            Err(RegistryError::UnknownModel(_))
        ));
    }

    #[test]
    fn resolve_rejects_versions_mid_unload() {
        // Simulates the lost race: a client resolved a handle, the
        // version is then unloaded, and a *new* resolve (or a pin
        // re-check through `is_unloading`) must fail deterministically.
        let reg = ModelRegistry::new();
        let h = install_asia(&reg, "asia");
        install_asia(&reg, "asia");
        reg.unload("asia", Some(1)).unwrap();
        assert!(h.is_unloading());
        let err = RegistryError::Unloading(h.tag());
        assert_eq!(err.to_string(), "model_unloading: asia@v1");
    }

    #[test]
    fn budget_evicts_lru_but_never_alias_or_pins() {
        let reg = ModelRegistry::new().with_budget_mb(0); // evict all non-alias
        let v1 = install_asia(&reg, "asia");
        assert_eq!(reg.resolve("asia").unwrap().version(), 1, "alias survives");
        install_asia(&reg, "asia");
        // v1 is not the alias anymore → evicted (unlinked, not dropped:
        // we still hold the Arc).
        assert!(matches!(
            reg.resolve("asia@v1"),
            Err(RegistryError::UnknownVersion { .. })
        ));
        assert_eq!(reg.resolve("asia").unwrap().version(), 2);
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.unlinked, 1, "pinned evictee stays visible");
        assert!(stats.unlinked_bytes > 0);
        assert!(!v1.is_unloading(), "eviction is not an unload");
        // Dropping the pin releases the bytes on the next sweep.
        drop(v1);
        let stats = reg.stats();
        assert_eq!((stats.unlinked, stats.unlinked_bytes), (0, 0));
    }

    #[test]
    fn lru_prefers_least_recently_resolved() {
        let reg = ModelRegistry::new().with_budget_mb(0);
        install_asia(&reg, "a");
        install_asia(&reg, "a");
        install_asia(&reg, "b");
        // Only alias targets remain under a zero budget; both a@v2 and
        // b@v1 survive because aliases are never evicted.
        assert_eq!(reg.resolve("a").unwrap().version(), 2);
        assert_eq!(reg.resolve("b").unwrap().version(), 1);
        let stats = reg.stats();
        assert_eq!(stats.versions, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn list_is_sorted_and_reports_pins() {
        let reg = ModelRegistry::new();
        install_asia(&reg, "zeta");
        let pin = install_asia(&reg, "alpha");
        install_asia(&reg, "alpha");
        let list = reg.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "alpha");
        assert_eq!(list[0].alias, 2);
        assert_eq!(list[0].versions.len(), 2);
        assert!(list[0].versions[0].pinned, "we hold alpha@v1");
        assert!(!list[1].versions[0].pinned);
        assert_eq!(list[1].name, "zeta");
        drop(pin);
    }

    #[test]
    fn served_counts_accumulate_per_version() {
        let reg = ModelRegistry::new();
        let h = install_asia(&reg, "asia");
        h.record_served();
        h.record_served();
        assert_eq!(h.served(), 2);
        assert_eq!(reg.stats().served, 2);
        let list = reg.list();
        assert_eq!(list[0].versions[0].served, 2);
    }

    mod stress {
        use super::*;
        use std::sync::atomic::AtomicBool;

        /// Resolver threads hammer the alias while the main thread
        /// swaps it back and forth: no resolve may ever observe a torn
        /// state (a version other than the two alias targets) or
        /// panic. Each swap waits for a resolve of the new target
        /// before the next flip, so the both-targets-observed check
        /// holds even when a single-core scheduler runs the swap loop
        /// to completion before any worker gets a slice.
        #[test]
        #[ignore = "stress"]
        fn alias_swap_under_contention() {
            use std::sync::atomic::AtomicU64;
            let reg = Arc::new(ModelRegistry::new());
            install_asia(&reg, "asia");
            install_asia(&reg, "asia");
            let stop = Arc::new(AtomicBool::new(false));
            let observed: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let stop = Arc::clone(&stop);
                    let observed = Arc::clone(&observed);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            match reg.resolve("asia") {
                                Ok(h) => {
                                    assert!(h.version() == 1 || h.version() == 2);
                                    observed[(h.version() - 1) as usize]
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("alias resolve failed: {e}"),
                            }
                        }
                    })
                })
                .collect();
            for round in 0..50u32 {
                let v = 1 + (round % 2);
                reg.swap("asia", v).unwrap();
                let before = observed[(v - 1) as usize].load(Ordering::Relaxed);
                while observed[(v - 1) as usize].load(Ordering::Relaxed) == before {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            for w in workers {
                w.join().unwrap();
            }
            assert!(
                observed[0].load(Ordering::Relaxed) > 0 && observed[1].load(Ordering::Relaxed) > 0,
                "both alias targets observed"
            );
        }
    }
}
