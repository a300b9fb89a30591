//! The `serve.write` fault probe (`--features fault-injection`).
//!
//! A fault plan is process-wide and the probe's index counts writes per
//! connection, so while the plan is armed any other connection in the
//! process would lose its first reply and wait for it forever. This
//! test therefore has a test binary to itself: Cargo runs integration
//! test binaries one at a time.

#![cfg(feature = "fault-injection")]

use std::io;
use std::os::unix::net::UnixStream;

use culinaria_core::{FlavorViewRef, RecipesViewRef};
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_serve::{arm, Client, ConnStats, ServeConfig, Server};
use culinaria_stats::fault::{self, FaultKind, FaultPlan};

/// Serve one armed connection while `f` drives its client; returns what
/// `serve_connection` returned once `f` has dropped the client.
fn serve_one<F>(server: &Server<'_>, f: F) -> io::Result<ConnStats>
where
    F: FnOnce(Client<UnixStream>),
{
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    arm(&server_side, server.config()).expect("arm");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle = scope.spawn(move || server.serve_connection(reader, server_side));
        f(Client::new(client_side));
        handle.join().expect("server thread")
    })
}

/// With the `serve.write` probe armed, a reply-path failure kills that
/// connection (reader stops via the dead flag) but never the server.
#[test]
fn injected_write_fault_kills_the_connection_not_the_server() {
    let world = generate_world(&WorldConfig::tiny());
    let cfg = ServeConfig {
        read_timeout_ms: 200,
        idle_timeout_ms: 200,
        ..ServeConfig::default()
    };
    let server = Server::new(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&world.recipes),
        cfg,
        Metrics::enabled(),
    );
    let failed = fault::with_plan(
        FaultPlan::new().fail("serve.write", 0, FaultKind::Error),
        || {
            serve_one(&server, |mut client| {
                client.send("1 PING").unwrap();
                // The reply path died before the response: EOF, no frame.
                assert!(client.recv().unwrap().is_none());
            })
        },
    );
    assert!(failed.is_err(), "injected write fault must surface");
    // A fresh connection (plan cleared) serves normally.
    let stats = serve_one(&server, |mut client| {
        assert_eq!(client.call(1, "PING").unwrap(), "OK pong");
    })
    .expect("serve");
    assert_eq!(stats.served, 1);
}
