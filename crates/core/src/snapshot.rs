//! Site snapshots — the unit of longitudinal observation (§3.2).
//!
//! A [`Snapshot`] captures what one weekly crawl of one FQDN saw: the DNS
//! state, the HTTP outcome, and content features. Full HTML is retained only
//! on *change* (the real system also stores samples, not every fetch — the
//! study kept 54,325 abused index files out of millions of fetches).
//!
//! The body-derived features live in one [`ContentFeatures`] block behind an
//! `Arc`. A block is immutable once the crawl that built it finishes: a site
//! whose body hash is unchanged shares its predecessor's block (a reference
//! count bump, no feature data allocated), and the diff stage's replacement
//! of the stored snapshot drops a reference instead of freeing strings. The
//! few writers (the crawl's sitemap fetch, the storelog decoder) go through
//! [`Arc::make_mut`], which copies only a block that is still shared.

use contentgen::{extract, lang};
use dns::{Name, Rcode};
use serde::{Deserialize, Error, Serialize, Value};
use simcore::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Content features derived from one index body (plus the sitemap size
/// fetched alongside it). Shared, never mutated in place once published:
/// see the module docs.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct ContentFeatures {
    pub title: Option<String>,
    /// BCP47-ish tag from content language detection.
    pub language: Option<String>,
    /// Top content keywords (extracted lazily, only when content changed).
    pub keywords: Vec<String>,
    pub meta_keywords: Vec<String>,
    pub generator: Option<String>,
    /// Advertised sitemap size in bytes (`Content-Length` of /sitemap.xml).
    pub sitemap_bytes: Option<u64>,
    pub script_srcs: Vec<String>,
    /// Tagged §6 identifiers found on the page.
    pub identifiers: Vec<String>,
}

impl ContentFeatures {
    /// Heap bytes of the block's strings (capacities approximated by
    /// length), excluding the block itself.
    fn heap_bytes(&self) -> usize {
        fn s(v: &Option<String>) -> usize {
            v.as_ref().map_or(0, String::len)
        }
        fn vs(v: &[String]) -> usize {
            v.iter()
                .map(|x| std::mem::size_of::<String>() + x.len())
                .sum()
        }
        s(&self.title)
            + s(&self.language)
            + s(&self.generator)
            + vs(&self.keywords)
            + vs(&self.meta_keywords)
            + vs(&self.script_srcs)
            + vs(&self.identifiers)
    }
}

/// One observation of one FQDN.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub fqdn: Name,
    pub day: SimTime,
    pub rcode: Rcode,
    pub cname_target: Option<Name>,
    pub ip: Option<Ipv4Addr>,
    /// `None` = no HTTP response at all (connection failed / no address).
    pub http_status: Option<u16>,
    /// FNV hash of the served index body (cheap change detector).
    pub index_hash: u64,
    pub index_size: u32,
    /// Body-derived features, shared with the previous snapshot while the
    /// body hash is unchanged.
    pub content: Arc<ContentFeatures>,
    /// Retained HTML (only populated for changed/flagged snapshots).
    pub html: Option<String>,
}

impl Snapshot {
    /// An "unreachable" snapshot (NXDOMAIN / no response).
    pub fn unreachable(fqdn: Name, day: SimTime, rcode: Rcode, cname: Option<Name>) -> Self {
        Snapshot {
            fqdn,
            day,
            rcode,
            cname_target: cname,
            ip: None,
            http_status: None,
            index_hash: 0,
            index_size: 0,
            content: Arc::default(),
            html: None,
        }
    }

    /// Populate content features from an HTML body (the expensive path, run
    /// only when the body hash differs from the previous snapshot). The
    /// snapshot gets a fresh, unshared feature block.
    pub fn ingest_content(&mut self, html: &str, keep_html: bool) {
        self.index_size = html.len() as u32;
        self.content = Arc::new(ContentFeatures {
            title: extract::title(html),
            language: lang::detect(&extract::visible_text_chars(html)).map(|l| l.tag().into()),
            keywords: crate::keywords::extract_keywords(html, 10),
            meta_keywords: extract::meta_keywords(html),
            generator: extract::generator(html),
            // Not in the body: the crawl's sitemap fetch fills it in.
            sitemap_bytes: None,
            script_srcs: extract::script_srcs(html),
            identifiers: extract::identifiers(html).tagged(),
        });
        if keep_html {
            self.html = Some(html.to_string());
        }
    }

    /// Is the FQDN serving content at all?
    pub fn is_serving(&self) -> bool {
        matches!(self.http_status, Some(s) if s < 500)
    }

    /// Approximate resident bytes of this snapshot: the struct itself plus
    /// every owned heap allocation (string capacities approximated by
    /// length). This is the per-snapshot term of the paper-scale
    /// `pipeline.bytes_per_fqdn` budget; interned label text is accounted
    /// once per process by the interner, not here.
    ///
    /// The shared feature block (with its two reference counts) is charged
    /// to every snapshot that holds it. The store keeps one snapshot per
    /// FQDN and never two generations of one site, so within the store each
    /// block is counted once per FQDN that references it.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Snapshot>()
            + self.fqdn.heap_bytes()
            + self.cname_target.as_ref().map_or(0, Name::heap_bytes)
            + self.html.as_ref().map_or(0, String::len)
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<ContentFeatures>()
            + self.content.heap_bytes()
    }
}

/// Field names of the serialized [`Snapshot`] object, in emit order — the
/// flat layout (features inline, no nested object) the v1 JSON storelog and
/// the golden digest were written with.
const SNAPSHOT_FIELDS: [&str; 17] = [
    "fqdn",
    "day",
    "rcode",
    "cname_target",
    "ip",
    "http_status",
    "index_hash",
    "index_size",
    "title",
    "language",
    "keywords",
    "meta_keywords",
    "generator",
    "sitemap_bytes",
    "script_srcs",
    "identifiers",
    "html",
];

impl Serialize for Snapshot {
    fn to_json_value(&self) -> Value {
        let c = &*self.content;
        let values = [
            self.fqdn.to_json_value(),
            self.day.to_json_value(),
            self.rcode.to_json_value(),
            self.cname_target.to_json_value(),
            self.ip.to_json_value(),
            self.http_status.to_json_value(),
            self.index_hash.to_json_value(),
            self.index_size.to_json_value(),
            c.title.to_json_value(),
            c.language.to_json_value(),
            c.keywords.to_json_value(),
            c.meta_keywords.to_json_value(),
            c.generator.to_json_value(),
            c.sitemap_bytes.to_json_value(),
            c.script_srcs.to_json_value(),
            c.identifiers.to_json_value(),
            self.html.to_json_value(),
        ];
        Value::Object(
            SNAPSHOT_FIELDS
                .iter()
                .zip(values)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// One named member of a serialized snapshot. A missing member reads as
/// `null`, so absent `Option`s deserialize to `None` and anything else is
/// a "missing field" error — the derive's rule.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(x) => T::from_json_value(x),
        None => T::from_json_value(&Value::Null)
            .map_err(|_| Error::custom(format!("missing field `{name}` in Snapshot"))),
    }
}

impl Deserialize for Snapshot {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        if !matches!(v, Value::Object(_)) {
            return Err(Error::unexpected("object", v));
        }
        Ok(Snapshot {
            fqdn: field(v, "fqdn")?,
            day: field(v, "day")?,
            rcode: field(v, "rcode")?,
            cname_target: field(v, "cname_target")?,
            ip: field(v, "ip")?,
            http_status: field(v, "http_status")?,
            index_hash: field(v, "index_hash")?,
            index_size: field(v, "index_size")?,
            content: Arc::new(ContentFeatures {
                title: field(v, "title")?,
                language: field(v, "language")?,
                keywords: field(v, "keywords")?,
                meta_keywords: field(v, "meta_keywords")?,
                generator: field(v, "generator")?,
                sitemap_bytes: field(v, "sitemap_bytes")?,
                script_srcs: field(v, "script_srcs")?,
                identifiers: field(v, "identifiers")?,
            }),
            html: field(v, "html")?,
        })
    }
}

/// FNV-1a body hash.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in body {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Default shard count for [`SnapshotStore`]. Sixteen keeps per-shard maps
/// small at production scale while staying cheap at test scale.
pub const DEFAULT_SHARDS: usize = 16;

/// The pipeline's one work-partitioning hash: FNV-1a over an FQDN's labels,
/// reduced modulo `n`. A fixed hash — not the std `RandomState` — so the
/// partition is identical across runs, processes and thread counts. Every
/// shard-parallel pass (crawl, Algorithm-1 classification, the retrospective
/// signature matching and clustering) buckets by this same function.
pub fn fqdn_shard(fqdn: &Name, n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for label in fqdn.labels() {
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff; // label separator, so ["ab","c"] != ["a","bc"]
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % n.max(1) as u64) as usize
}

/// Latest-snapshot store, sharded by a stable hash of the FQDN.
///
/// Sharding serves the parallel monitoring pipeline: the crawl executor
/// partitions work by [`SnapshotStore::shard_of`], so every worker thread
/// touches a disjoint slice of the keyspace, and [`SnapshotStore::iter`]
/// yields snapshots in canonical FQDN order — never raw `HashMap` order — so
/// downstream passes (the §3.2 benign-corpus sample in particular) are
/// byte-deterministic for any shard or thread count.
#[derive(Debug)]
pub struct SnapshotStore {
    shards: Vec<HashMap<Name, Snapshot>>,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl SnapshotStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A store with a specific shard count (minimum 1).
    pub fn with_shards(n: usize) -> Self {
        SnapshotStore {
            shards: (0..n.max(1)).map(|_| HashMap::new()).collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an FQDN lives in — [`fqdn_shard`] over this store's shard
    /// count.
    pub fn shard_of(&self, fqdn: &Name) -> usize {
        fqdn_shard(fqdn, self.shards.len())
    }

    pub fn latest(&self, fqdn: &Name) -> Option<&Snapshot> {
        self.shards[self.shard_of(fqdn)].get(fqdn)
    }

    /// Insert a new snapshot, returning the previous one (for diffing).
    pub fn insert(&mut self, snap: Snapshot) -> Option<Snapshot> {
        let shard = self.shard_of(&snap.fqdn);
        self.shards[shard].insert(snap.fqdn.clone(), snap)
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Approximate resident bytes of the whole store: every snapshot's
    /// [`Snapshot::approx_bytes`] plus HashMap bucket overhead (key + value
    /// slot per capacity unit, 7/8 load factor approximated by counting
    /// capacity). Feeds the `pipeline.bytes_per_fqdn` gauge.
    pub fn approx_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(Name, Snapshot)>() + std::mem::size_of::<u64>();
        self.shards
            .iter()
            .map(|m| {
                m.capacity() * slot
                    + m.iter()
                        .map(|(k, v)| {
                            k.heap_bytes() + v.approx_bytes() - std::mem::size_of::<Snapshot>()
                        })
                        .sum::<usize>()
            })
            .sum()
    }

    /// All latest snapshots in canonical (sorted-FQDN) order. O(n log n),
    /// paid once by the retrospective pass — the price of determinism.
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> {
        let mut all: Vec<&Snapshot> = self.shards.iter().flat_map(HashMap::values).collect();
        all.sort_unstable_by(|a, b| a.fqdn.cmp(&b.fqdn));
        all.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_extracts_features() {
        let mut s = Snapshot::unreachable(
            "x.example.com".parse().unwrap(),
            SimTime(0),
            Rcode::NoError,
            None,
        );
        s.http_status = Some(200);
        s.ingest_content(
            "<html><head><title>SLOT GACOR</title>\
             <meta name=\"keywords\" content=\"slot, judi\"></head>\
             <body>daftar situs judi slot online slot</body></html>",
            true,
        );
        assert_eq!(s.content.title.as_deref(), Some("SLOT GACOR"));
        assert_eq!(s.content.language.as_deref(), Some("id"));
        assert!(s.content.keywords.contains(&"slot".to_string()));
        assert_eq!(s.content.meta_keywords, vec!["slot", "judi"]);
        assert!(s.html.is_some());
        assert!(s.is_serving());
    }

    /// Every field set, with strings that need JSON escaping.
    fn full_snapshot() -> Snapshot {
        let mut s = Snapshot::unreachable(
            "shop.acme.example".parse().unwrap(),
            SimTime(42),
            Rcode::NoError,
            Some("acme-shop.azurewebsites.net".parse().unwrap()),
        );
        s.ip = Some(Ipv4Addr::new(10, 1, 2, 3));
        s.http_status = Some(200);
        s.index_hash = 0xfeed_beef;
        s.index_size = 4821;
        s.content = Arc::new(ContentFeatures {
            title: Some("Welcome — «démo»".into()),
            language: Some("fr".into()),
            keywords: vec!["casino".into(), "slots".into()],
            meta_keywords: vec!["casino".into()],
            generator: Some("WordPress 6.2".into()),
            sitemap_bytes: Some(120_000),
            script_srcs: vec!["https://cdn.example/app.js".into()],
            identifiers: vec!["ua-1234".into()],
        });
        s.html = Some("<html lang=\"fr\">\"q\"</html>".into());
        s
    }

    /// The serializer is hand-written, so its layout is pinned here: these
    /// are the exact strings the derived impl of the flat struct produced
    /// (the v1 storelog and the golden digest depend on them).
    #[test]
    fn json_layout_matches_the_flat_derive() {
        let full = full_snapshot();
        let json = serde_json::to_string(&full).unwrap();
        assert_eq!(
            json,
            r#"{"fqdn":"shop.acme.example","day":42,"rcode":"NoError","cname_target":"acme-shop.azurewebsites.net","ip":"10.1.2.3","http_status":200,"index_hash":4276993775,"index_size":4821,"title":"Welcome — «démo»","language":"fr","keywords":["casino","slots"],"meta_keywords":["casino"],"generator":"WordPress 6.2","sitemap_bytes":120000,"script_srcs":["https://cdn.example/app.js"],"identifiers":["ua-1234"],"html":"<html lang=\"fr\">\"q\"</html>"}"#
        );
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);

        let gone = Snapshot::unreachable(
            "gone.example.com".parse().unwrap(),
            SimTime(5),
            Rcode::NxDomain,
            None,
        );
        let json = serde_json::to_string(&gone).unwrap();
        assert_eq!(
            json,
            r#"{"fqdn":"gone.example.com","day":5,"rcode":"NxDomain","cname_target":null,"ip":null,"http_status":null,"index_hash":0,"index_size":0,"title":null,"language":null,"keywords":[],"meta_keywords":[],"generator":null,"sitemap_bytes":null,"script_srcs":[],"identifiers":[],"html":null}"#
        );
        assert_eq!(serde_json::from_str::<Snapshot>(&json).unwrap(), gone);
    }

    #[test]
    fn json_missing_members_follow_the_derive_rule() {
        let full = serde_json::to_value(&full_snapshot()).unwrap();
        let without = |name: &str| {
            let serde_json::Value::Object(fields) = &full else {
                unreachable!()
            };
            let kept = fields.iter().filter(|(k, _)| k != name).cloned().collect();
            serde_json::from_value::<Snapshot>(serde_json::Value::Object(kept))
        };
        // An absent option is `None`; any other absent member is an error.
        assert_eq!(without("title").unwrap().content.title, None);
        let err = without("keywords").unwrap_err().to_string();
        assert!(
            err.contains("missing field `keywords` in Snapshot"),
            "{err}"
        );
        assert!(serde_json::from_str::<Snapshot>("[]").is_err());
    }

    #[test]
    fn unreachable_defaults() {
        let s = Snapshot::unreachable(
            "gone.example.com".parse().unwrap(),
            SimTime(5),
            Rcode::NxDomain,
            Some("gone.azurewebsites.net".parse().unwrap()),
        );
        assert!(!s.is_serving());
        assert_eq!(s.http_status, None);
        assert!(s.cname_target.is_some());
    }

    #[test]
    fn store_returns_previous() {
        let mut store = SnapshotStore::new();
        let n: Name = "a.b.com".parse().unwrap();
        let s1 = Snapshot::unreachable(n.clone(), SimTime(0), Rcode::NoError, None);
        assert!(store.insert(s1.clone()).is_none());
        let s2 = Snapshot::unreachable(n.clone(), SimTime(7), Rcode::NxDomain, None);
        let prev = store.insert(s2).unwrap();
        assert_eq!(prev.day, SimTime(0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest(&n).unwrap().day, SimTime(7));
    }

    #[test]
    fn body_hash_distinguishes() {
        assert_ne!(body_hash(b"a"), body_hash(b"b"));
        assert_eq!(body_hash(b"same"), body_hash(b"same"));
    }

    #[test]
    fn store_iterates_in_canonical_order() {
        let mut store = SnapshotStore::with_shards(4);
        for host in ["z.b.com", "a.b.com", "m.b.com", "k.a.com"] {
            store.insert(Snapshot::unreachable(
                host.parse().unwrap(),
                SimTime(0),
                Rcode::NoError,
                None,
            ));
        }
        let order: Vec<String> = store.iter().map(|s| s.fqdn.to_string()).collect();
        let mut sorted = order.clone();
        sorted.sort_by(|a, b| {
            let na: Name = a.parse().unwrap();
            let nb: Name = b.parse().unwrap();
            na.cmp(&nb)
        });
        assert_eq!(order, sorted);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        let store = SnapshotStore::with_shards(8);
        let n: Name = "host.example.com".parse().unwrap();
        let s = store.shard_of(&n);
        assert!(s < 8);
        assert_eq!(s, store.shard_of(&"HOST.example.com".parse().unwrap()));
        // Different shard counts still cover every name.
        let one = SnapshotStore::with_shards(1);
        assert_eq!(one.shard_of(&n), 0);
    }
}
