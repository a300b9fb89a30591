//! Supplementary analysis: the Ahn-style flavor network underlying the
//! pairing analysis — per-cuisine network statistics, hubs, and
//! backbone structure.

use culinaria_bench::{metrics_from_env, section, world_from_env};
use culinaria_core::network::FlavorNetwork;
use culinaria_recipedb::Region;

fn main() {
    let world = world_from_env();
    let sink = metrics_from_env();

    section("Flavor-network statistics per cuisine");
    println!(
        "{:4}  {:>6} {:>8} {:>9} {:>11} {:>10}",
        "reg", "nodes", "edges", "density", "clustering", "backbone5"
    );
    for region in Region::ALL {
        let cuisine = world.recipes.cuisine(region);
        let net = FlavorNetwork::build(&world.flavor, &cuisine.ingredient_set(), 0, &sink.metrics)
            .expect("live cuisine pool");
        let bb = net.backbone(5);
        println!(
            "{:4}  {:>6} {:>8} {:>9.3} {:>11.3} {:>10}",
            region.code(),
            net.n_nodes(),
            net.n_edges(),
            net.density(),
            net.clustering_coefficient(),
            bb.n_edges()
        );
    }

    section("Global network (full ingredient universe)");
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let net = FlavorNetwork::build(&world.flavor, &pool, 0, &sink.metrics).expect("live pool");
    println!(
        "nodes {}, edges {}, density {:.3}, clustering {:.3}",
        net.n_nodes(),
        net.n_edges(),
        net.density(),
        net.clustering_coefficient()
    );
    println!("\nflavor hubs (highest total shared-compound strength):");
    for (id, strength) in net.hubs(10) {
        let name = &world.flavor.ingredient(id).expect("live id").name;
        println!("  {name:28} strength {strength}");
    }
    println!("\nheaviest flavor edges:");
    for e in net.top_edges(10) {
        let a = &world.flavor.ingredient(e.a).expect("live id").name;
        let b = &world.flavor.ingredient(e.b).expect("live id").name;
        println!("  {a} — {b}  ({} shared compounds)", e.weight);
    }
    sink.dump();
}
