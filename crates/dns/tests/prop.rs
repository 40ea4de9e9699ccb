//! Property-based tests for the DNS substrate: wire-format roundtrips over
//! arbitrary messages, name algebra invariants, and decoder robustness
//! against arbitrary byte soup.

use dns::wire::{decode, encode};
use dns::{
    CaaRecord, Header, Message, Name, Opcode, Question, Rcode, RecordData, RecordType,
    ResourceRecord, Soa,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_][a-z0-9_-]{0,14}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| Name::from_labels(labels).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RecordData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RecordData::Cname),
        arb_name().prop_map(RecordData::Ns),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, refresh)| RecordData::Soa(Soa {
                mname,
                rname,
                serial,
                refresh,
                retry: 600,
                expire: 86400,
                minimum: 300,
            })
        ),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RecordData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,40}", 1..4).prop_map(RecordData::Txt),
        ("[a-z]{1,10}", "[ -~]{0,30}", any::<bool>()).prop_map(|(tag, value, crit)| {
            RecordData::Caa(CaaRecord {
                flags: if crit { 0x80 } else { 0 },
                tag,
                value,
            })
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, data)| ResourceRecord::new(name, ttl, data))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(arb_name(), 1..3),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(id, qr, rd, qnames, answers, authority, additional)| Message {
                header: Header {
                    id,
                    qr,
                    opcode: Opcode::Query,
                    aa: qr,
                    tc: false,
                    rd,
                    ra: qr,
                    rcode: Rcode::NoError,
                },
                questions: qnames
                    .into_iter()
                    .map(|n| Question::new(n, RecordType::A))
                    .collect(),
                answers,
                authority,
                additional,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on arbitrary well-formed messages.
    #[test]
    fn wire_roundtrip(msg in arb_message()) {
        let wire = encode(&msg);
        let back = decode(&wire).expect("decode of own encoding");
        prop_assert_eq!(back, msg);
    }

    /// The decoder never panics and never loops on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Flipping any single byte of a valid message never panics the decoder.
    #[test]
    fn decoder_survives_single_byte_corruption(
        msg in arb_message(),
        idx in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let wire = encode(&msg).to_vec();
        let mut corrupted = wire.clone();
        let i = idx.index(corrupted.len());
        corrupted[i] ^= xor;
        let _ = decode(&corrupted);
    }

    /// Compression never changes semantics: every name decoded from the wire
    /// matches its source name (spot-checked via questions).
    #[test]
    fn names_survive_compression(names in proptest::collection::vec(arb_name(), 1..8)) {
        let mut msg = Message::query(1, names[0].clone(), RecordType::A);
        for n in &names {
            msg.questions.push(Question::new(n.clone(), RecordType::A));
            // Repeat names so the compressor has targets to point at.
            msg.answers.push(ResourceRecord::new(
                n.clone(),
                60,
                RecordData::Cname(names[0].clone()),
            ));
        }
        let back = decode(&encode(&msg)).unwrap();
        prop_assert_eq!(back.questions.len(), msg.questions.len());
        for (a, b) in back.questions.iter().zip(msg.questions.iter()) {
            prop_assert_eq!(&a.name, &b.name);
        }
    }

    /// Name parse/display roundtrip and suffix algebra.
    #[test]
    fn name_parse_display_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let back: Name = s.parse().unwrap();
        prop_assert_eq!(&back, &name);
        // every name ends with its own parent chain
        let mut p = name.parent();
        while let Some(anc) = p {
            prop_assert!(name.ends_with(&anc));
            if anc.label_count() > 0 {
                prop_assert!(name.is_subdomain_of(&anc));
            }
            p = anc.parent();
        }
    }

    /// child() then parent() is the identity.
    #[test]
    fn child_parent_inverse(name in arb_name(), label in arb_label()) {
        if let Ok(c) = name.child(&label) {
            prop_assert_eq!(c.parent().unwrap(), name);
        }
    }
}

// ---------------------------------------------------------------------------
// Authority differential: the hash-indexed `ZoneSet`/`Zone`/`lookup_in`
// against an ordered-map reference that answers by brute force (suffix scan
// for the zone, descendant scan for empty non-terminals).
// ---------------------------------------------------------------------------

use dns::server::lookup_in;
use dns::zone::ZoneLookup;
use dns::ZoneSet;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// Zone origins: `x.a.com` nests inside `a.com`, `q.p.b.net` sits two
/// labels under `b.net` with `p.b.net` an empty non-terminal between them.
const ORIGINS: [&str; 4] = ["a.com", "x.a.com", "b.net", "q.p.b.net"];
/// Name bases: the origins, the non-terminal, and a suffix no zone covers
/// (CNAMEs into it leave the authority).
const BASES: [&str; 6] = ["a.com", "x.a.com", "b.net", "p.b.net", "q.p.b.net", "c.org"];
/// Prefix labels; they collide with origin labels on purpose, and `*` makes
/// a wildcard owner whenever it lands leftmost.
const PREFIX: [&str; 4] = ["p", "q", "x", "*"];

fn vocab_name(base: usize, prefix: &[usize]) -> Name {
    let mut labels: Vec<&str> = prefix
        .iter()
        .enumerate()
        .map(|(i, &p)| if p == 3 && i > 0 { "r" } else { PREFIX[p] })
        .collect();
    labels.extend(BASES[base].split('.'));
    Name::from_labels(labels).unwrap()
}

fn arb_vocab_name() -> impl Strategy<Value = Name> {
    (
        0usize..BASES.len(),
        proptest::collection::vec(0usize..4, 0..3),
    )
        .prop_map(|(base, prefix)| vocab_name(base, &prefix))
}

fn arb_zone_rdata() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        (0u8..3).prop_map(|o| RecordData::A(Ipv4Addr::new(10, 0, 0, o))),
        arb_vocab_name().prop_map(RecordData::Cname),
        (0u8..2).prop_map(|t| RecordData::Txt(vec![format!("t{t}")])),
    ]
}

const QTYPES: [RecordType; 4] = [
    RecordType::A,
    RecordType::Cname,
    RecordType::Txt,
    RecordType::Mx,
];

#[derive(Debug, Clone)]
enum ZoneOp {
    Create(usize),
    /// Add into the zone named by origin index (skipped unless the zone
    /// exists and covers the owner — possibly occluded by a nested zone).
    Add(usize, ResourceRecord),
    /// Add into the longest-matching zone via `find_zone_mut`.
    AddLongest(ResourceRecord),
    RemoveType(usize, Name, usize),
    RemoveName(usize, Name),
}

fn arb_zone_op() -> impl Strategy<Value = ZoneOp> {
    let rr = || {
        (arb_vocab_name(), arb_zone_rdata())
            .prop_map(|(name, data)| ResourceRecord::new(name, 60, data))
    };
    prop_oneof![
        1 => (0usize..ORIGINS.len()).prop_map(ZoneOp::Create),
        4 => (0usize..ORIGINS.len(), rr()).prop_map(|(z, r)| ZoneOp::Add(z, r)),
        3 => rr().prop_map(ZoneOp::AddLongest),
        1 => (0usize..ORIGINS.len(), arb_vocab_name(), 0usize..3)
            .prop_map(|(z, n, t)| ZoneOp::RemoveType(z, n, t)),
        1 => (0usize..ORIGINS.len(), arb_vocab_name()).prop_map(|(z, n)| ZoneOp::RemoveName(z, n)),
    ]
}

/// One reference zone: owners in an ordered map, every answer by scan.
#[derive(Default)]
struct RefZone {
    records: BTreeMap<Name, Vec<ResourceRecord>>,
}

impl RefZone {
    fn add(&mut self, rr: ResourceRecord) {
        let entry = self.records.entry(rr.name.clone()).or_default();
        if rr.rtype() == RecordType::Cname {
            entry.clear();
        } else {
            entry.retain(|r| r.rtype() != RecordType::Cname);
        }
        entry.push(rr);
    }

    fn remove_type(&mut self, name: &Name, rtype: RecordType) -> usize {
        let Some(rrs) = self.records.get_mut(name) else {
            return 0;
        };
        let before = rrs.len();
        rrs.retain(|r| r.rtype() != rtype);
        let removed = before - rrs.len();
        if rrs.is_empty() {
            self.records.remove(name);
        }
        removed
    }

    fn answer_at(rrs: &[ResourceRecord], name: &Name, rtype: RecordType) -> ZoneLookup {
        let found: Vec<ResourceRecord> = rrs
            .iter()
            .filter(|r| r.rtype() == rtype)
            .map(|r| ResourceRecord {
                name: name.clone(),
                ..r.clone()
            })
            .collect();
        if !found.is_empty() {
            return ZoneLookup::Found(found);
        }
        match rrs.iter().find(|r| r.rtype() == RecordType::Cname) {
            Some(c) if rtype != RecordType::Cname => ZoneLookup::Cname(ResourceRecord {
                name: name.clone(),
                ..c.clone()
            }),
            _ => ZoneLookup::NoData,
        }
    }

    fn lookup(&self, origin: &Name, name: &Name, rtype: RecordType) -> ZoneLookup {
        if let Some(rrs) = self.records.get(name) {
            return Self::answer_at(rrs, name, rtype);
        }
        let mut anc = name.parent();
        while let Some(a) = anc.filter(|a| a.ends_with(origin)) {
            if let Some(rrs) = a.child("*").ok().and_then(|w| self.records.get(&w)) {
                return Self::answer_at(rrs, name, rtype);
            }
            anc = a.parent();
        }
        if self.records.keys().any(|o| o.is_subdomain_of(name)) {
            ZoneLookup::NoData
        } else {
            ZoneLookup::NxDomain
        }
    }
}

#[derive(Default)]
struct RefZoneSet {
    zones: BTreeMap<Name, RefZone>,
}

type Answer = (Rcode, Vec<ResourceRecord>, Vec<ResourceRecord>);

impl RefZoneSet {
    fn find_zone(&self, name: &Name) -> Option<(&Name, &RefZone)> {
        self.zones
            .iter()
            .filter(|(o, _)| name.ends_with(o))
            .max_by_key(|(o, _)| o.label_count())
    }

    fn lookup_in(&self, real: &ZoneSet, name: &Name, qtype: RecordType) -> Answer {
        let mut answers = Vec::new();
        let mut current = name.clone();
        for hop in 0..16 {
            let Some((origin, z)) = self.find_zone(&current) else {
                let rcode = if hop == 0 {
                    Rcode::Refused
                } else {
                    Rcode::NoError
                };
                return (rcode, answers, Vec::new());
            };
            // The SOA is zone metadata the model does not track; take it
            // from the real zone with the same origin.
            let soa = || {
                let soa = real.get(origin).expect("zone exists in both").soa().clone();
                vec![ResourceRecord::new(
                    origin.clone(),
                    soa.minimum,
                    RecordData::Soa(soa),
                )]
            };
            match z.lookup(origin, &current, qtype) {
                ZoneLookup::Found(rrs) => {
                    answers.extend(rrs);
                    return (Rcode::NoError, answers, Vec::new());
                }
                ZoneLookup::Cname(rr) => {
                    let RecordData::Cname(t) = &rr.data else {
                        unreachable!()
                    };
                    current = t.clone();
                    answers.push(rr);
                }
                ZoneLookup::NoData => return (Rcode::NoError, answers, soa()),
                ZoneLookup::NxDomain => return (Rcode::NxDomain, answers, soa()),
            }
        }
        (Rcode::ServFail, answers, Vec::new())
    }
}

/// Every query name the vocabulary can form, plus names one label deeper
/// (wildcard-synthesis targets).
fn query_names() -> Vec<Name> {
    let mut out = Vec::new();
    for base in 0..BASES.len() {
        out.push(vocab_name(base, &[]));
        for a in 0..4 {
            out.push(vocab_name(base, &[a]));
            for b in 0..4 {
                out.push(vocab_name(base, &[a, b]));
                out.push(vocab_name(base, &[0, a, b]));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn check_equivalent(
    real: &ZoneSet,
    model: &RefZoneSet,
    queries: &[Name],
) -> Result<(), TestCaseError> {
    // Canonical iteration order regardless of insertion order.
    let origins: Vec<&Name> = real.iter().map(|z| z.origin()).collect();
    prop_assert_eq!(origins, model.zones.keys().collect::<Vec<_>>());
    for (zone, (_, rz)) in real.iter().zip(&model.zones) {
        let got: Vec<&ResourceRecord> = zone.iter().collect();
        let want: Vec<&ResourceRecord> = rz.records.values().flatten().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(zone.name_count(), rz.records.len());
    }
    for q in queries {
        let got = real.find_zone(q).map(|z| z.origin().clone());
        let want = model.find_zone(q).map(|(o, _)| o.clone());
        prop_assert_eq!(&got, &want, "find_zone({}): {:?} != {:?}", q, got, want);
        for qtype in QTYPES {
            // Every zone covering the name answers, occluded ones included.
            for (origin, rz) in model.zones.iter().filter(|(o, _)| q.ends_with(o)) {
                let got = real.get(origin).unwrap().lookup(q, qtype);
                let want = rz.lookup(origin, q, qtype);
                prop_assert_eq!(
                    &got,
                    &want,
                    "zone {} lookup({}, {:?}): {:?} != {:?}",
                    origin,
                    q,
                    qtype,
                    got,
                    want
                );
            }
            let got = lookup_in(real, q, qtype);
            let want = model.lookup_in(real, q, qtype);
            prop_assert_eq!(
                &got,
                &want,
                "lookup_in({}, {:?}): {:?} != {:?}",
                q,
                qtype,
                got,
                want
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The hash-indexed authority answers exactly like the ordered-map
    /// reference after every step of an add/remove churn over nested
    /// origins, cross-zone CNAME chains, wildcards at several depths and
    /// empty non-terminals.
    #[test]
    fn authority_matches_ordered_reference(ops in proptest::collection::vec(arb_zone_op(), 1..48)) {
        let queries = query_names();
        let mut real = ZoneSet::new();
        let mut model = RefZoneSet::default();
        for op in ops {
            match op {
                ZoneOp::Create(i) => {
                    let origin: Name = ORIGINS[i].parse().unwrap();
                    real.zone_mut_or_create(&origin);
                    model.zones.entry(origin).or_default();
                }
                ZoneOp::Add(i, rr) => {
                    let origin: Name = ORIGINS[i].parse().unwrap();
                    if let (Some(z), true) = (real.get_mut(&origin), rr.name.ends_with(&origin)) {
                        z.add(rr.clone());
                        model.zones.get_mut(&origin).unwrap().add(rr);
                    }
                }
                ZoneOp::AddLongest(rr) => {
                    let want = model.find_zone(&rr.name).map(|(o, _)| o.clone());
                    let got = real.find_zone_mut(&rr.name);
                    prop_assert_eq!(got.as_ref().map(|z| z.origin().clone()), want.clone());
                    if let (Some(z), Some(origin)) = (got, want) {
                        z.add(rr.clone());
                        model.zones.get_mut(&origin).unwrap().add(rr);
                    }
                }
                ZoneOp::RemoveType(i, name, t) => {
                    let origin: Name = ORIGINS[i].parse().unwrap();
                    if let Some(z) = real.get_mut(&origin) {
                        let rtype = QTYPES[t];
                        let want = model.zones.get_mut(&origin).unwrap().remove_type(&name, rtype);
                        prop_assert_eq!(z.remove_type(&name, rtype), want);
                    }
                }
                ZoneOp::RemoveName(i, name) => {
                    let origin: Name = ORIGINS[i].parse().unwrap();
                    if let Some(z) = real.get_mut(&origin) {
                        let rz = model.zones.get_mut(&origin).unwrap();
                        let want = rz.records.remove(&name).map_or(0, |v| v.len());
                        prop_assert_eq!(z.remove_name(&name), want);
                    }
                }
            }
            check_equivalent(&real, &model, &queries)?;
        }
    }
}
