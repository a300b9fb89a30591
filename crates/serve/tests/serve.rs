//! Integration coverage for the serve stack: framing fuzz (malformed
//! frames never panic and always answer with structured errors),
//! batch≡serial response bit-identity across worker-thread counts,
//! served-vs-offline parity for every endpoint, cache behavior over a
//! live connection, correct answers across live ingest swaps, and
//! load-shedding backpressure.

use std::os::unix::net::UnixStream;

use proptest::prelude::*;

use culinaria_core::pairing::OverlapCache;
use culinaria_core::z_analysis::analyze_cuisine;
use culinaria_core::{recipe_pairing_score, FlavorViewRef, MonteCarloConfig, RecipesViewRef};
use culinaria_core::{CuisineView, NullModel};
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::import::Importer;
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_serve::protocol::{
    self, parse_request, read_frame, topk_body, Client, TopPairing, MAX_FRAME, MAX_TOPK,
};
use culinaria_serve::{ConnStats, Request, ServeConfig, Server};

fn tiny_world() -> World {
    generate_world(&WorldConfig::tiny())
}

fn server_over<'a>(world: &'a World, cfg: ServeConfig) -> Server<'a> {
    Server::new(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&world.recipes),
        cfg,
        Metrics::enabled(),
    )
}

/// A populated region of the world plus a few of its ingredient ids.
fn probe(world: &World) -> (Region, Vec<IngredientId>) {
    let region = *world
        .recipes
        .regions()
        .first()
        .expect("tiny world has recipes");
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    assert!(pool.len() >= 4, "need a few ingredients to probe with");
    (region, pool[..4].to_vec())
}

fn ids_arg(ids: &[IngredientId]) -> String {
    ids.iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One of the server's `serve.cache.*` counters.
fn cache_counter(server: &Server<'_>, name: &str) -> u64 {
    let snap = server.metrics().snapshot();
    snap.counter(&format!("serve.cache.{name}")).unwrap_or(0)
}

/// A copy of the world's store plus one streamed-in recipe of `ids` in
/// `region` (changes that cuisine, hence its ZPROF and TOPK answers).
fn grown_store(world: &World, region: Region, ids: &[IngredientId]) -> RecipeStore {
    let mut grown = RecipeStore::new();
    for r in world.recipes.recipes() {
        grown
            .add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
            .unwrap();
    }
    grown
        .add_recipe("streamed", region, Source::Synthetic, ids.to_vec())
        .unwrap();
    grown
}

/// Run `f` against a served connection; returns the connection stats.
fn with_connection<F>(server: &Server<'_>, f: F) -> ConnStats
where
    F: FnOnce(&mut Client<UnixStream>) + Send,
{
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let mut client = Client::new(client_side);
        f(&mut client);
        drop(client);
        handle.join().expect("server thread")
    })
}

proptest! {
    /// Arbitrary bytes never panic the frame reader, and whatever
    /// frames do decode never panic the request parser.
    #[test]
    fn fuzz_frame_reader_and_parser(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = &bytes[..];
        while let Ok(Some(payload)) = read_frame(&mut r, MAX_FRAME) {
            let _ = parse_request(&payload);
        }
    }

    /// Any single-line payload either parses or yields a structured
    /// error with a stable code — never a panic.
    #[test]
    fn fuzz_parse_request_total(payload in "\\PC{0,120}") {
        match parse_request(payload.as_bytes()) {
            Ok(_) => {}
            Err((_, e)) => prop_assert!(!e.code.is_empty() && !e.message.is_empty()),
        }
    }
}

#[test]
fn garbage_frames_get_structured_errors_and_the_connection_survives() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let stats = with_connection(&server, |client| {
        // Garbage verb.
        assert_eq!(
            client.call(1, "FRY ITA").unwrap(),
            "ERR bad-verb unknown verb \"FRY\""
        );
        // Non-UTF-8 payload.
        client.send_raw(&[0xff, 0xfe, 0xfd]).unwrap();
        let (id, rest) = client.recv().unwrap().unwrap();
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR bad-encoding"), "{rest}");
        // The connection still answers after both errors.
        assert_eq!(client.call(2, "PING").unwrap(), "OK pong");
        assert!(client.call(3, "QUIT").unwrap().starts_with("OK bye"));
    });
    assert_eq!(stats.protocol_errors, 2);
}

#[test]
fn truncated_frame_closes_with_structured_error() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        // Header promising 100 bytes, then hang up.
        use std::io::Write;
        let mut half = client_side.try_clone().unwrap();
        half.write_all(&100u32.to_le_bytes()).unwrap();
        half.write_all(b"only a little").unwrap();
        half.shutdown(std::net::Shutdown::Write).unwrap();
        let mut client = Client::new(client_side);
        let (id, rest) = client.recv().unwrap().unwrap();
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR bad-frame"), "{rest}");
        assert!(client.recv().unwrap().is_none(), "connection closed");
        handle.join().expect("server thread")
    });
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn oversized_frame_is_rejected_not_read() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        use std::io::Write;
        let mut half = client_side.try_clone().unwrap();
        half.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        half.flush().unwrap();
        let mut client = Client::new(client_side);
        let (_, rest) = client.recv().unwrap().unwrap();
        assert!(rest.starts_with("ERR bad-frame"), "{rest}");
        assert!(client.recv().unwrap().is_none(), "stream desynced → closed");
        handle.join().expect("server thread");
    });
}

/// The canonical deterministic query mix used by the identity tests,
/// parsed from the wire text a client sends. Id sets come back
/// permuted and with duplicates, and every form must answer like the
/// normalized set whatever the order.
fn mixed_requests(world: &World) -> Vec<(u64, Request)> {
    let (region, ids) = probe(world);
    let code = region.code();
    let [a, b, c, d] = [ids[0].0, ids[1].0, ids[2].0, ids[3].0];
    let lines = [
        format!("PAIR {code} {a},{b},{c},{d}"),
        format!("PAIR - {a},{b},{c},{d}"),
        format!("TOPK {code} 5"),
        format!("ZPROF {code}"),
        "PING".to_string(),
        format!("PAIR {code} {a},{a},{b}"),
        format!("PAIR {code} {a},{b}"),
        format!("PAIR - {b},{a},{a}"),
        format!("PAIR {code} {d},{c},{b},{a},{d}"),
    ];
    let mut reqs = Vec::new();
    for rep in 0..3u64 {
        for (k, line) in lines.iter().enumerate() {
            let payload = format!("{} {line}", rep * 10 + k as u64 + 1);
            reqs.push(parse_request(payload.as_bytes()).expect("well-formed request"));
        }
    }
    reqs
}

#[test]
fn batch_responses_bit_identical_across_thread_counts() {
    let world = tiny_world();
    let reqs = mixed_requests(&world);
    let mut reference: Option<Vec<String>> = None;
    for cache_entries in [0, ServeConfig::default().cache_entries] {
        let mut counters = None;
        for threads in [1usize, 2, 4, 8] {
            let cfg = ServeConfig {
                threads,
                cache_entries,
                mc_recipes: 300,
                ..ServeConfig::default()
            };
            let server = server_over(&world, cfg);
            let mut responses = Vec::new();
            // Two successive batches so cache state crosses a batch edge.
            let (front, back) = reqs.split_at(reqs.len() / 2);
            responses.extend(server.handle_batch(front));
            responses.extend(server.handle_batch(back));
            let stats = (
                cache_counter(&server, "hits"),
                cache_counter(&server, "misses"),
            );
            match &counters {
                None => counters = Some(stats),
                Some(first) => assert_eq!(&stats, first, "{threads} threads"),
            }
            match &reference {
                None => reference = Some(responses),
                Some(first) => assert_eq!(
                    &responses, first,
                    "{threads} threads, cache {cache_entries} diverged"
                ),
            }
        }
    }
}

#[test]
fn batched_equals_serial_responses() {
    let world = tiny_world();
    let cfg = ServeConfig {
        mc_recipes: 300,
        cache_entries: 0, // isolate pure computation from cache effects
        ..ServeConfig::default()
    };
    let batched_server = server_over(&world, cfg);
    let serial_server = server_over(&world, cfg);
    let reqs = mixed_requests(&world);
    let batched = batched_server.handle_batch(&reqs);
    let serial: Vec<String> = reqs
        .iter()
        .map(|(id, req)| serial_server.handle(*id, req))
        .collect();
    assert_eq!(batched, serial);
}

#[test]
fn pair_shard_and_global_paths_agree_bitwise() {
    let world = tiny_world();
    let (region, _) = probe(&world);
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    // Every adjacent pair and triple, each sent sorted, reversed with a
    // duplicate, and with its first id doubled: `a,b`, `b,a,a` and
    // `a,a,b` for a pair. Over the region shard and the global path,
    // with the cache off and on and the forms in either order, every
    // one answers with the offline owned-path score of the set.
    for cache_entries in [0, ServeConfig::default().cache_entries] {
        for reversed in [false, true] {
            let cfg = ServeConfig {
                cache_entries,
                ..ServeConfig::default()
            };
            let server = server_over(&world, cfg);
            for w in pool.windows(3).take(20) {
                for set in [&w[..2], w] {
                    let offline = recipe_pairing_score(&world.flavor, set);
                    let expected = format!("OK {}", protocol::pair_body(offline));
                    let mut dup_rev: Vec<IngredientId> = set.iter().rev().copied().collect();
                    dup_rev.push(set[0]);
                    let dup_first: Vec<IngredientId> =
                        std::iter::once(set[0]).chain(set.iter().copied()).collect();
                    let mut forms = [ids_arg(set), ids_arg(&dup_rev), ids_arg(&dup_first)];
                    if reversed {
                        forms.reverse();
                    }
                    for ids in &forms {
                        for target in [region.code(), "-"] {
                            let line = format!("1 PAIR {target} {ids}");
                            let (_, req) = parse_request(line.as_bytes()).unwrap();
                            let got = server.handle(1, &req);
                            assert_eq!(
                                got.split_once(' ').unwrap().1,
                                expected,
                                "{line:?}, cache {cache_entries}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn zprof_matches_offline_analyze_cuisine_bitwise() {
    let world = tiny_world();
    let cfg = ServeConfig {
        mc_recipes: 400,
        seed: 77,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, _) = probe(&world);
    let served = server.handle(9, &Request::ZProf { region });
    let offline = analyze_cuisine(
        &world.flavor,
        world.recipes.cuisine(region),
        &NullModel::ALL,
        &MonteCarloConfig {
            n_recipes: 400,
            seed: 77,
            n_threads: 1,
        },
    )
    .expect("probed region is populated");
    assert_eq!(served, format!("9 OK {}", protocol::zprof_body(&offline)));
}

/// The offline `TOPK` reference: every overlapping pool pair of the
/// region, with co-occurrence counted over every recipe of the store,
/// stable-sorted by novelty descending.
fn offline_top_pairings(world: &World, region: Region) -> Vec<TopPairing> {
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    let cache = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region));
    let tri_index = |n: usize, i: usize, j: usize| i * n - i * (i + 1) / 2 + (j - i - 1);
    let pos: std::collections::HashMap<IngredientId, usize> =
        pool.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut cooc = vec![0u64; pool.len() * pool.len().saturating_sub(1) / 2];
    for recipe in world.recipes.recipes() {
        let mut members: Vec<usize> = recipe
            .ingredients()
            .iter()
            .filter_map(|id| pos.get(id).copied())
            .collect();
        members.sort_unstable();
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                cooc[tri_index(pool.len(), i, j)] += 1;
            }
        }
    }
    let mut candidates: Vec<(f64, u32, u64, usize, usize)> = Vec::new();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap == 0 {
                continue;
            }
            let c = cooc[tri_index(pool.len(), i, j)];
            candidates.push((f64::from(overlap) / (1.0 + c as f64), overlap, c, i, j));
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    candidates
        .iter()
        .map(|&(novelty, overlap, cooc, i, j)| TopPairing {
            novelty,
            overlap,
            cooc,
            a: world.flavor.ingredient(pool[i]).unwrap().name.clone(),
            b: world.flavor.ingredient(pool[j]).unwrap().name.clone(),
        })
        .collect()
}

#[test]
fn topk_matches_offline_novelty_enumeration() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let mut tie_at_the_cut = false;
    for region in world.recipes.regions() {
        let all = offline_top_pairings(&world, region);
        // Past MAX_TOPK the server keeps only the top pairs; where a
        // novelty tie spans the cut, the reference's stable order
        // decides which of the tied pairs make it.
        if all.len() > MAX_TOPK && all[MAX_TOPK - 1].novelty == all[MAX_TOPK].novelty {
            tie_at_the_cut = true;
        }
        for k in [8, MAX_TOPK] {
            let served = server.handle(4, &Request::TopK { region, k });
            let rows = &all[..k.min(all.len())];
            assert_eq!(
                served,
                format!("4 OK {}", topk_body(region, rows)),
                "{} k={k}",
                region.code()
            );
        }
    }
    assert!(tie_at_the_cut, "no region of tiny() ties across MAX_TOPK");
}

#[test]
fn topk_rejects_k_outside_the_protocol_bound_even_when_built_in_code() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, _) = probe(&world);
    let (_, parsed) = parse_request(format!("3 TOPK {} 0", region.code()).as_bytes()).unwrap_err();
    for k in [0, MAX_TOPK + 1] {
        assert_eq!(
            server.handle(3, &Request::TopK { region, k }),
            format!("3 ERR {} {}", parsed.code, parsed.message),
            "k={k}"
        );
    }
}

#[test]
fn score_matches_offline_import_and_score() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, _) = probe(&world);
    // Lines built from real ingredient names resolve on any dataset.
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    let lines: Vec<String> = pool[..3]
        .iter()
        .map(|&id| world.flavor.ingredient(id).unwrap().name.clone())
        .collect();
    let served = server.handle(
        5,
        &Request::Score {
            region,
            lines: lines.clone(),
        },
    );

    let importer = Importer::from_flavor_db(&world.flavor);
    let (ids, resolved) = culinaria_serve::resolve_score_lines(&importer, &world.flavor, &lines);
    assert!(ids.len() >= 2, "names must resolve against their own db");
    let score = recipe_pairing_score(&world.flavor, &ids);
    let mean = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region))
        .mean_cuisine_score_view(&cuisine)
        .expect("cuisine scores");
    let expected = format!(
        "5 OK {} vs={}",
        protocol::score_body(resolved, lines.len(), ids.len(), score),
        protocol::f64_field(mean),
    );
    assert_eq!(served, expected);
}

#[test]
fn score_reads_a_quantity_before_a_generated_name() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, ids) = probe(&world);
    // Generated names (`syn-NNN-category`) carry a digit run, so alias
    // resolution splits them and only the exact-name lookup finds them.
    let name = &world.flavor.ingredient(ids[0]).unwrap().name;
    assert!(name.starts_with("syn-"), "{name}");
    for line in [format!("2 {name}"), format!("1 cup {name}")] {
        let served = server.handle(
            6,
            &Request::Score {
                region,
                lines: vec![line.clone()],
            },
        );
        let expected = protocol::score_body(1, 1, 1, 0.0);
        assert!(served.contains(&expected), "{line}: {served}");
    }
}

#[test]
fn cache_hits_and_eviction_counters_over_a_connection() {
    let world = tiny_world();
    let cfg = ServeConfig {
        cache_entries: 2,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, ids) = probe(&world);
    let arg = ids_arg(&ids);
    let code = region.code();
    let offline = recipe_pairing_score(&world.flavor, &ids);
    // The first request repeats an id: its set is normalized before it
    // is scored, so the answer it caches is the distinct set's.
    let dup = format!("{},{arg}", ids[0].0);
    with_connection(&server, |client| {
        let first = client.call(1, &format!("PAIR {code} {dup}")).unwrap();
        assert_eq!(first, format!("OK {}", protocol::pair_body(offline)));
        let second = client.call(2, &format!("PAIR {code} {arg}")).unwrap();
        assert_eq!(first, second);
        // Permuted ids hit the same entry.
        let permuted: String = ids
            .iter()
            .rev()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(
            client.call(3, &format!("PAIR {code} {permuted}")).unwrap(),
            first
        );
        // Two more distinct keys overflow the 2-entry capacity.
        client.call(4, &format!("TOPK {code} 3")).unwrap();
        client.call(5, &format!("TOPK {code} 4")).unwrap();
        client.call(6, "QUIT").unwrap();
    });
    assert_eq!(cache_counter(&server, "hits"), 2);
    assert!(
        cache_counter(&server, "evictions") >= 1,
        "capacity 2 with 3 distinct keys evicts"
    );
}

/// Answer `lines` (wire text without the id) as one batch, through
/// `Server::handle` when it is a single request; returns whether
/// `serve.cache.hits` moved.
fn batch_hit(server: &Server<'_>, lines: &[&str]) -> bool {
    let reqs: Vec<(u64, Request)> = lines
        .iter()
        .map(|line| parse_request(format!("1 {line}").as_bytes()).unwrap())
        .collect();
    let before = cache_counter(server, "hits");
    let replies = match &reqs[..] {
        [(id, req)] => vec![server.handle(*id, req)],
        _ => server.handle_batch(&reqs),
    };
    for (line, reply) in lines.iter().zip(&replies) {
        let ok = reply.starts_with("1 OK ");
        assert_eq!(ok, !line.contains("4000000000"), "{line:?}: {reply}");
    }
    cache_counter(server, "hits") != before
}

#[test]
fn cache_decisions_over_a_fixed_sequence_are_pinned() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    let grown = grown_store(&world, region, &ids);
    let cfg = ServeConfig {
        threads: 1,
        cache_entries: 3,
        mc_recipes: 200,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let code = region.code();
    let [a, b, c] = [ids[0].0, ids[1].0, ids[2].0];
    let pair: &str = &format!("PAIR {code} {a},{b}");
    let global: &str = &format!("PAIR - {b},{a},{a}");
    let triple: &str = &format!("PAIR {code} {c},{a},{b}");
    let top5: &str = &format!("TOPK {code} 5");
    let top6: &str = &format!("TOPK {code} 6");
    let zprof: &str = &format!("ZPROF {code}");
    let unknown: &str = &format!("PAIR {code} {a},4000000000");
    // Each step is one batch and whether it hit. The comments give the
    // cache after the step, most recent entry first.
    let before_swap: [(&[&str], bool); 18] = [
        (&[pair], false),   // pair
        (&[pair], true),    // pair
        (&[global], false), // global, pair: same set, its own entry
        (&[global], true),  // global, pair
        (&[pair], true),    // pair, global
        (&[top5], false),   // top5, pair, global
        (&[top6], false),   // top6, top5, pair: evicts global
        (&[global], false), // global, top6, top5: evicts pair
        (&[pair], false),   // pair, global, top6: evicts top5
        (&[top6], true),    // top6, pair, global
        // Three misses; stores evict global, then pair, and the second
        // top5 store refreshes the first one's entry to most recent.
        (&[top5, triple, top5], false), // top5, triple, top6
        (&[zprof], false),              // zprof, top5, triple: evicts top6
        (&[pair], false),               // pair, zprof, top5: evicts triple
        (&[top5], true),                // top5, pair, zprof
        (&[triple], false),             // triple, top5, pair: evicts zprof
        (&[unknown], false),            // an error is never stored
        (&[unknown], false),
        (&["PING"], false), // never looked up
    ];
    let after_swap: [(&[&str], bool); 7] = [
        (&[triple], false), // stale: invalidated, recomputed and stored
        (&[triple], true),
        (&[top5], false),   // stale: top5, triple, pair (pair still stale)
        (&[global], false), // global, top5, triple: evicts stale pair
        (&[pair], false),   // pair, global, top5: evicts triple
        (&[global], true),
        (&[pair], true),
    ];
    for (step, (lines, hit)) in before_swap.iter().enumerate() {
        assert_eq!(batch_hit(&server, lines), *hit, "step {step}: {lines:?}");
    }
    server.ingest_swap(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&grown),
    );
    for (step, (lines, hit)) in after_swap.iter().enumerate() {
        assert_eq!(
            batch_hit(&server, lines),
            *hit,
            "step {step} after the swap: {lines:?}"
        );
    }
    let counters =
        ["hits", "misses", "evictions", "invalidations"].map(|name| cache_counter(&server, name));
    assert_eq!(counters, [8, 18, 10, 2]);
}

#[test]
fn pair_sets_built_in_code_must_be_sorted_and_distinct() {
    let world = tiny_world();
    let (region, _) = probe(&world);
    // The region's pair with the largest overlap, so a duplicated id
    // (a zero-overlap pair) changes the score.
    let cuisine = CuisineView::Owned(world.recipes.cuisine(region));
    let pool = cuisine.ingredient_set();
    let overlaps = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region));
    let (i, j) = (0..pool.len())
        .flat_map(|i| (i + 1..pool.len()).map(move |j| (i, j)))
        .max_by_key(|&(i, j)| overlaps.overlap(i as u32, j as u32))
        .unwrap();
    let (a, b) = (pool[i], pool[j]);
    let score = recipe_pairing_score(&world.flavor, &[a, b]);
    assert_ne!(score, recipe_pairing_score(&world.flavor, &[a, a, b]));
    let expected = format!("1 OK {}", protocol::pair_body(score));

    let wire_error = |line: String| {
        let (_, e) = parse_request(line.as_bytes()).unwrap_err();
        format!("1 ERR {} {}", e.code, e.message)
    };
    let long: Vec<IngredientId> = (0..=protocol::MAX_SET as u32).map(IngredientId).collect();
    let server = server_over(&world, ServeConfig::default());
    for region in [Some(region), None] {
        let pair = |ids: &[IngredientId]| {
            let ids = ids.to_vec();
            server.handle(1, &Request::Pair { region, ids })
        };
        let code = region.map_or("-", |r| r.code());
        // A duplicated set first: it must neither score nor cache an
        // answer for the set it would normalize to.
        let duplicated = pair(&[a, a, b]);
        assert_eq!(pair(&[a, b]), expected, "{code}");
        for reply in [duplicated, pair(&[b, a])] {
            assert!(reply.starts_with("1 ERR bad-ids "), "{code}: {reply}");
        }
        // What the parser refuses on the wire, with its message.
        assert_eq!(pair(&[a]), wire_error(format!("1 PAIR {code} {}", a.0)));
        let wire = wire_error(format!("1 PAIR {code} {}", ids_arg(&long)));
        assert_eq!(pair(&long), wire);
    }
}

#[test]
fn overloaded_connection_sheds_with_busy() {
    let world = tiny_world();
    let cfg = ServeConfig {
        threads: 1,
        batch_max: 1,
        max_queue: 1,
        cache_entries: 0,
        mc_recipes: 4000,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (region, _) = probe(&world);
    let n = 50u64;
    let stats = with_connection(&server, |client| {
        // Pipeline a burst of expensive queries without reading — the
        // 1-deep queue must shed most of them as BUSY.
        for id in 0..n {
            client
                .send(&format!("{id} ZPROF {}", region.code()))
                .unwrap();
        }
        let mut ok = 0u64;
        let mut busy = 0u64;
        for _ in 0..n {
            let (_, rest) = client.recv().unwrap().unwrap();
            if rest.starts_with("OK ") {
                ok += 1;
            } else if rest.starts_with("BUSY ") {
                busy += 1;
            } else {
                panic!("unexpected reply {rest}");
            }
        }
        assert!(ok >= 1, "at least the first query is answered");
        assert!(busy >= 1, "the burst must overflow the 1-deep queue");
    });
    assert_eq!(stats.served + stats.shed, n);
    assert!(stats.shed > 0);
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.busy"), Some(stats.shed));
}

#[test]
fn artifact_backed_server_is_bit_identical_to_owned() {
    use culinaria_flavordb::{artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder};
    use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder};

    let world = tiny_world();
    let (region, ids) = probe(&world);
    // Flavor artifact carrying the probe region's overlap section, so
    // the shard build takes the section-reuse fast path.
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    let cache = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region));
    builder
        .add_overlap(region.code(), cache.pool(), cache.tri())
        .expect("section encodes");
    let fbuf = AlignedBytes::from_vec(builder.build().expect("flavor artifact"));
    let rbuf = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("recipe artifact"),
    );
    let flavor = flavor_artifact::open(fbuf.as_slice()).expect("opens");
    let recipes = recipe_artifact::open(rbuf.as_slice()).expect("opens");

    let cfg = ServeConfig {
        mc_recipes: 300,
        ..ServeConfig::default()
    };
    let owned = server_over(&world, cfg);
    let borrowed = Server::new(
        FlavorViewRef::Artifact(&flavor),
        RecipesViewRef::Artifact(&recipes),
        cfg,
        Metrics::enabled(),
    );
    let name = world.flavor.ingredient(ids[0]).unwrap().name.clone();
    let reqs = [
        Request::Pair {
            region: Some(region),
            ids: ids.clone(),
        },
        Request::Pair {
            region: None,
            ids: ids.clone(),
        },
        Request::ZProf { region },
        Request::TopK { region, k: 6 },
        Request::Score {
            region,
            lines: vec![name.clone(), name],
        },
    ];
    for (i, req) in reqs.iter().enumerate() {
        let a = owned.handle(i as u64, req);
        let b = borrowed.handle(i as u64, req);
        assert_eq!(a, b, "request {req:?} diverged between representations");
    }
    // The shard build must have reused the artifact's section.
    let snap = borrowed.metrics().snapshot();
    assert_eq!(snap.counter("overlap.section_reuse"), Some(1));
}

#[test]
fn ingest_swap_invalidates_cache_and_serves_new_bits() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    let grown = grown_store(&world, region, &ids);

    let cfg = ServeConfig {
        cache_entries: 8,
        mc_recipes: 200,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let req = Request::ZProf { region };

    // Warm the cache: second identical query is a hit.
    let first = server.handle(1, &req);
    let hit = server.handle(2, &req);
    assert_eq!(first[2..], hit[2..], "ids differ, bodies must not");
    assert_eq!(cache_counter(&server, "hits"), 1);
    assert_eq!(server.generation(), 0);

    // Ingest: swap to the grown store. Generation moves, nothing is
    // swept eagerly.
    let generation = server.ingest_swap(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&grown),
    );
    assert_eq!(generation, 1);
    assert_eq!(server.generation(), 1);
    assert_eq!(cache_counter(&server, "invalidations"), 0);

    // The same query now evicts the stale entry (counted) and answers
    // with the new data's bits.
    let after = server.handle(3, &req);
    assert_eq!(
        cache_counter(&server, "invalidations"),
        1,
        "stale entry evicted on lookup"
    );
    assert_ne!(first[2..], after[2..], "answer must change with the data");

    // Bit-identical to a cold server started over the grown store.
    let fresh = Server::new(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&grown),
        cfg,
        Metrics::enabled(),
    );
    assert_eq!(after, fresh.handle(3, &req));

    // And the new answer is cached under the new generation.
    let again = server.handle(4, &req);
    assert_eq!(after[2..], again[2..]);
    assert_eq!(cache_counter(&server, "invalidations"), 1);
    assert_eq!(cache_counter(&server, "hits"), 2);
}

#[test]
fn pipelined_queries_stay_correct_across_live_ingest_swaps() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    // Generation g is the world plus g streamed-in recipes of the probe
    // region, so every swap changes its ZPROF answer.
    let generations: Vec<RecipeStore> = (0..=3)
        .map(|g| {
            let mut store = RecipeStore::new();
            for r in world.recipes.recipes() {
                store
                    .add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
                    .unwrap();
            }
            for k in 0..g {
                store
                    .add_recipe("streamed", region, Source::Synthetic, ids[k..].to_vec())
                    .unwrap();
            }
            store
        })
        .collect();
    let flavor = FlavorViewRef::Owned(&world.flavor);
    let code = region.code();
    let lines = [
        format!("ZPROF {code}"),
        format!("TOPK {code} {MAX_TOPK}"),
        format!("PAIR {code} {}", ids_arg(&ids)),
        format!("PAIR - {}", ids_arg(&ids)),
        format!("PAIR {code} {}", ids_arg(&ids[1..3])),
    ];
    let cfg = ServeConfig {
        threads: 2,
        mc_recipes: 200,
        ..ServeConfig::default()
    };
    let cold_answers = |store: &RecipeStore| -> Vec<String> {
        let cold = Server::new(
            flavor,
            RecipesViewRef::Owned(store),
            cfg,
            Metrics::enabled(),
        );
        lines
            .iter()
            .map(|line| {
                let (_, req) = parse_request(format!("0 {line}").as_bytes()).unwrap();
                cold.handle(0, &req).split_once(' ').unwrap().1.to_string()
            })
            .collect()
    };
    // The streamed recipes raise co-occurrence counts, so TOPK differs
    // between the first and the last generation: a co-occurrence
    // triangle left over from an older generation cannot pass below.
    let first = cold_answers(&generations[0]);
    let expected = cold_answers(&generations[3]);
    assert_ne!(first[1], expected[1], "TOPK must differ across generations");
    let server = Server::new(
        flavor,
        RecipesViewRef::Owned(&generations[0]),
        cfg,
        Metrics::enabled(),
    );

    let (request_swap, swap_requests) = std::sync::mpsc::channel::<usize>();
    let (swap_done, swaps_done) = std::sync::mpsc::channel::<u64>();
    let mut last_round = Vec::new();
    std::thread::scope(|scope| {
        let (server, generations) = (&server, &generations);
        let swapper = scope.spawn(move || {
            for g in swap_requests {
                let installed = server.ingest_swap(flavor, RecipesViewRef::Owned(&generations[g]));
                swap_done.send(installed).unwrap();
            }
        });
        let (lines, last_round) = (&lines, &mut last_round);
        with_connection(server, move |client| {
            // Cached before any swap: generation-0 entries (and TOPK's
            // generation-0 triangle) that a later round must find stale.
            assert!(client.call(1, &lines[0]).unwrap().starts_with("OK "));
            assert!(client.call(2, &lines[1]).unwrap().starts_with("OK "));
            for round in 0..=3u64 {
                for (k, line) in lines.iter().enumerate() {
                    client
                        .send(&format!("{} {line}", 10 * round + k as u64))
                        .unwrap();
                }
                // Install the next generation while this round is in
                // flight.
                if round < 3 {
                    request_swap.send(round as usize + 1).unwrap();
                }
                let mut replies: Vec<(u64, String)> = (0..lines.len())
                    .map(|_| client.recv().unwrap().unwrap())
                    .collect();
                for (id, rest) in &replies {
                    assert!(rest.starts_with("OK "), "round {round}, id {id}: {rest}");
                }
                if round < 3 {
                    assert_eq!(swaps_done.recv().unwrap(), round + 1);
                }
                replies.sort();
                *last_round = replies.into_iter().map(|(_, rest)| rest).collect();
            }
        });
        swapper.join().unwrap();
    });
    assert_eq!(server.generation(), 3);
    assert!(cache_counter(&server, "invalidations") > 0);

    // The round sent after the last swap answers exactly like a cold
    // server over the final store.
    assert_eq!(last_round, expected);
}

#[test]
fn metrics_endpoint_returns_live_json() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (region, ids) = probe(&world);
    with_connection(&server, |client| {
        client
            .call(1, &format!("PAIR {} {}", region.code(), ids_arg(&ids)))
            .unwrap();
        let body = client.call(2, "METRICS").unwrap();
        let json = body.strip_prefix("OK metrics ").expect("metrics body");
        assert!(json.contains("\"serve.pair_us\""), "{json}");
        assert!(json.contains("\"serve.requests\""), "{json}");
        assert!(json.contains("\"p99_us\""), "interpolated quantiles render");
        client.call(3, "QUIT").unwrap();
    });
}

// ---------------------------------------------------------------------------
// Operational hardening: deadlines, HEALTH, graceful shutdown (DESIGN.md §15).
// ---------------------------------------------------------------------------

use std::io::Write as _;

use culinaria_serve::{arm, ShutdownFlag};

/// A config with tight deadlines for the timeout tests; armed sockets
/// tick every 25ms, so sub-second deadlines keep the tests fast.
fn deadline_cfg(read_ms: u64, idle_ms: u64) -> ServeConfig {
    ServeConfig {
        read_timeout_ms: read_ms,
        idle_timeout_ms: idle_ms,
        ..ServeConfig::default()
    }
}

#[test]
fn health_reports_liveness_and_pressure() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    with_connection(&server, |client| {
        let body = client.call(7, "HEALTH").unwrap();
        assert!(body.starts_with("OK health gen=0 "), "{body}");
        assert!(body.contains(" conns=1 "), "{body}");
        assert!(body.contains(" uptime_ms="), "{body}");
        assert!(body.contains(" timeouts=0 "), "{body}");
        // HEALTH is volatile — the served counter it reports moves
        // between calls, so the body can never come from the cache.
        client.call(8, "PING").unwrap();
        let again = client.call(9, "HEALTH").unwrap();
        assert!(again.contains(" served="), "{again}");
        assert_ne!(body, again, "HEALTH must never be cached");
    });
}

#[test]
fn stalled_midframe_client_is_shed_with_a_framed_error() {
    let world = tiny_world();
    let server = server_over(&world, deadline_cfg(80, 0));
    let (server_side, mut stalled) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(reader, server_side));
        // Two of the four header bytes, then stall forever.
        stalled.write_all(&[0, 0]).unwrap();
        let mut client = Client::new(stalled);
        let (id, rest) = client.recv().unwrap().expect("a shed frame before close");
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR read-timeout"), "{rest}");
        // ... and then the connection is closed, not wedged.
        assert!(client.recv().unwrap().is_none());
        handle.join().expect("server thread").expect("clean shed")
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.served, 0);
}

#[test]
fn idle_client_is_closed_cleanly_without_an_error_frame() {
    let world = tiny_world();
    let server = server_over(&world, deadline_cfg(0, 80));
    let (server_side, quiet) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(reader, server_side));
        let mut client = Client::new(quiet);
        // The server hangs up after the idle deadline — clean EOF, no
        // ERR frame for a client that simply had nothing to say.
        assert!(client.recv().unwrap().is_none());
        handle.join().expect("server thread").expect("clean close")
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.served, 0);
    // The timeout is still visible operationally.
    let after = with_connection(&server, |client| {
        let body = client.call(1, "HEALTH").unwrap();
        assert!(body.contains(" timeouts=1 "), "{body}");
    });
    assert_eq!(after.served, 1);
}

#[test]
fn stalled_client_does_not_wedge_other_connections() {
    let world = tiny_world();
    let (region, ids) = probe(&world);
    let server = server_over(&world, deadline_cfg(600, 0));
    std::thread::scope(|scope| {
        // Connection A: armed, stalls after one header byte.
        let (a_srv, mut a_cli) = UnixStream::pair().expect("socketpair");
        arm(&a_srv, server.config()).expect("arm");
        let a_reader = a_srv.try_clone().expect("clone");
        let server_ref = &server;
        let a = scope.spawn(move || server_ref.serve_connection(a_reader, a_srv));
        a_cli.write_all(&[1]).unwrap();

        // Connection B: full service while A sits mid-frame.
        let stats = with_connection(&server, |client| {
            let reply = client
                .call(1, &format!("PAIR {} {}", region.code(), ids_arg(&ids)))
                .unwrap();
            assert!(reply.starts_with("OK pair"), "{reply}");
            assert_eq!(client.call(2, "PING").unwrap(), "OK pong");
        });
        assert_eq!(stats.served, 2);

        // A is eventually shed — the server survives both outcomes.
        let mut a_client = Client::new(a_cli);
        let (_, rest) = a_client.recv().unwrap().expect("shed frame");
        assert!(rest.starts_with("ERR read-timeout"), "{rest}");
        a.join().expect("conn A thread").expect("clean shed");
    });
}

#[test]
fn shutdown_drains_accepted_requests_before_closing() {
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let shutdown = ShutdownFlag::new();
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    let stats = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let flag = shutdown.clone();
        let server_ref = &server;
        let handle =
            scope.spawn(move || server_ref.serve_connection_with(reader, server_side, &flag));
        let mut client = Client::new(client_side);
        // Pipeline a burst, then pull the plug before reading anything.
        // Every fully-sent request sits in the kernel buffer, and a
        // shutdown tick only fires once that buffer is empty — so all
        // five must still be answered (zero dropped in-flight replies).
        for id in 1..=5u64 {
            client.send(&format!("{id} PING")).unwrap();
        }
        shutdown.trigger();
        let mut answered = Vec::new();
        while let Some((id, rest)) = client.recv().unwrap() {
            assert_eq!(rest, "OK pong");
            answered.push(id);
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 2, 3, 4, 5]);
        handle
            .join()
            .expect("server thread")
            .expect("clean shutdown")
    });
    assert_eq!(stats.served, 5);
    assert_eq!(stats.protocol_errors, 0);
}
