//! Criterion benches: DNS wire codec and resolver throughput — the
//! substrate cost under the collection pipeline (1.5M+ weekly resolutions
//! in the real study).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dns::wire::{decode, encode};
use dns::{
    Authority, Message, Name, RecordData, RecordType, Resolver, ResourceRecord, Zone, ZoneSet,
};
use simcore::SimTime;

fn sample_message() -> Message {
    let q = Message::query(7, "shop.example.com".parse().unwrap(), RecordType::A);
    let mut r = Message::response(&q, dns::Rcode::NoError);
    r.answers.push(ResourceRecord::new(
        "shop.example.com".parse().unwrap(),
        300,
        RecordData::Cname("shop-prod.azurewebsites.net".parse().unwrap()),
    ));
    r.answers.push(ResourceRecord::new(
        "shop-prod.azurewebsites.net".parse().unwrap(),
        60,
        RecordData::A("20.40.60.80".parse().unwrap()),
    ));
    r
}

fn build_world(n_subdomains: usize) -> Resolver<Authority> {
    let mut zs = ZoneSet::new();
    let mut org = Zone::new("example.com".parse().unwrap());
    let mut cloud = Zone::new("azurewebsites.net".parse().unwrap());
    for i in 0..n_subdomains {
        let sub: Name = format!("svc{i}.example.com").parse().unwrap();
        let target: Name = format!("example-svc{i}.azurewebsites.net").parse().unwrap();
        org.add(ResourceRecord::new(
            sub,
            300,
            RecordData::Cname(target.clone()),
        ));
        cloud.add(ResourceRecord::new(
            target,
            60,
            RecordData::A(
                format!("20.{}.{}.{}", 40 + i / 62_500, i / 250 % 250, i % 250 + 1)
                    .parse()
                    .unwrap(),
            ),
        ));
    }
    zs.insert(org);
    zs.insert(cloud);
    Resolver::new(Authority::new(zs))
}

fn bench_wire(c: &mut Criterion) {
    let msg = sample_message();
    let wire = encode(&msg);
    let mut g = c.benchmark_group("dns_wire");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode", |b| b.iter(|| encode(black_box(&msg))));
    g.bench_function("decode", |b| b.iter(|| decode(black_box(&wire)).unwrap()));
    g.bench_function("roundtrip", |b| {
        b.iter(|| decode(&encode(black_box(&msg))).unwrap())
    });
    g.finish();
}

fn bench_resolver(c: &mut Criterion) {
    let mut g = c.benchmark_group("resolver");
    g.throughput(Throughput::Elements(1000));
    // The same 1k chains against zones of 1k and of 100k owners: per-lookup
    // authority cost must not grow with zone size.
    for (owners, row) in [
        (1000, "resolve_1k_cname_chains"),
        (100_000, "resolve_1k_cname_chains_100k_owners"),
    ] {
        let resolver = build_world(owners);
        let names: Vec<Name> = (0..1000)
            .map(|i| {
                format!("svc{}.example.com", i * (owners / 1000))
                    .parse()
                    .unwrap()
            })
            .collect();
        g.bench_function(row, |b| {
            let mut day = 0;
            b.iter(|| {
                day += 1;
                for n in &names {
                    black_box(resolver.resolve_a(n, SimTime(day)));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wire, bench_resolver);
criterion_main!(benches);
