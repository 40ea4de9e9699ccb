//! Criterion benches: the detection pipeline's hot paths — Algorithm 1
//! classification, snapshot diffing, signature matching, HTML feature
//! extraction.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dangling_core::collect::Collector;
use dangling_core::signature::{Signature, HUGE_SITEMAP_BYTES};
use dangling_core::snapshot::Snapshot;
use dns::{Authority, Name, RecordData, Resolver, ResourceRecord, Zone, ZoneSet};
use simcore::SimTime;
use std::sync::Arc;

fn setup_resolver(n: usize) -> (Resolver<Authority>, Vec<Name>) {
    let mut zs = ZoneSet::new();
    let mut org = Zone::new("victim.com".parse().unwrap());
    let mut cloud = Zone::new("azurewebsites.net".parse().unwrap());
    let mut names = Vec::new();
    for i in 0..n {
        let sub: Name = format!("s{i}.victim.com").parse().unwrap();
        let target: Name = format!("victim-s{i}.azurewebsites.net").parse().unwrap();
        org.add(ResourceRecord::new(
            sub.clone(),
            300,
            RecordData::Cname(target.clone()),
        ));
        if i % 2 == 0 {
            cloud.add(ResourceRecord::new(
                target,
                60,
                RecordData::A("20.40.0.9".parse().unwrap()),
            ));
        }
        names.push(sub);
    }
    zs.insert(org);
    zs.insert(cloud);
    (Resolver::new(Authority::new(zs)), names)
}

fn bench_algorithm1(c: &mut Criterion) {
    let (resolver, names) = setup_resolver(1000);
    let collector = Collector::new();
    let mut g = c.benchmark_group("algorithm1");
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("collect_1k_fqdns", |b| {
        b.iter(|| black_box(collector.collect_fqdns(&names, &resolver, SimTime(0))))
    });
    g.finish();
}

fn abuse_page() -> String {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let spec = contentgen::abuse::AbuseSpec {
        topic: contentgen::abuse::AbuseTopic::Gambling,
        technique: contentgen::abuse::SeoTechnique::DoorwayPages,
        page_count: 30_000,
        use_meta_keywords: true,
        maintenance_shell_lang: None,
        links: contentgen::abuse::CampaignLinks {
            phones: vec!["6281111111111".into()],
            social: vec!["t.me/gacor".into()],
            shortlinks: vec!["bit.ly/abc".into()],
            backend_ips: vec!["203.0.113.9".parse().unwrap()],
            target_site: "maxwin.example".into(),
            referral_code: "REF1".into(),
        },
        network_peers: vec![],
        template_keywords: vec![],
    };
    contentgen::abuse::build_abuse_site(&spec, "h.victim.com", &mut rng).index_html
}

fn bench_extraction(c: &mut Criterion) {
    let html = abuse_page();
    let mut g = c.benchmark_group("extraction");
    g.throughput(Throughput::Bytes(html.len() as u64));
    g.bench_function("full_feature_extraction", |b| {
        b.iter(|| {
            let mut s = Snapshot::unreachable(
                "h.victim.com".parse().unwrap(),
                SimTime(0),
                dns::Rcode::NoError,
                None,
            );
            s.http_status = Some(200);
            s.ingest_content(black_box(&html), false);
            black_box(s)
        })
    });
    g.finish();
}

fn bench_signature_matching(c: &mut Criterion) {
    let html = abuse_page();
    let mut snap = Snapshot::unreachable(
        "h.victim.com".parse().unwrap(),
        SimTime(0),
        dns::Rcode::NoError,
        None,
    );
    snap.http_status = Some(200);
    snap.ingest_content(&html, false);
    Arc::make_mut(&mut snap.content).sitemap_bytes = Some(900_000);
    let signatures: Vec<Signature> = (0..200)
        .map(|i| Signature {
            id: i,
            keywords: vec!["slot".into(), "gacor".into()],
            min_sitemap_bytes: (i % 2 == 0).then_some(HUGE_SITEMAP_BYTES),
            script_markers: if i % 3 == 0 {
                vec!["popunder.js".into()]
            } else {
                vec![]
            },
            requires_identifiers: i % 5 == 0,
            source_members: 4,
            source_slds: 3,
        })
        .collect();
    let mut g = c.benchmark_group("signatures");
    g.throughput(Throughput::Elements(signatures.len() as u64));
    g.bench_function("match_200_signatures", |b| {
        b.iter(|| {
            black_box(
                signatures
                    .iter()
                    .filter(|s| s.matches(black_box(&snap)))
                    .count(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_algorithm1,
    bench_extraction,
    bench_signature_matching
);
criterion_main!(benches);
