//! The multiplexed shard RPC path, end to end against scripted in-test
//! shards: out-of-order completion frames resolve the right waiting
//! client connections, a shard killed mid-flight fails every in-flight
//! id with the retryable `503` contract (and the next forward lazily
//! reconnects), the per-shard in-flight cap declines overflow inline,
//! and the Unix-socket transport carries frames and aggregated shard
//! stats just like loopback TCP.
//!
//! The fakes speak the real frame protocol through [`tlm_serve::rpc`]
//! but answer scripted bodies — the front forwards opaquely, so the
//! tests control completion *order* and connection *lifetime* exactly,
//! which a real estimation shard cannot guarantee.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::sync::{mpsc, Arc};
use std::thread;

use tlm_serve::client;
use tlm_serve::http::Response;
use tlm_serve::protocol::Service;
use tlm_serve::rpc::{self, CONTROL_ID, TAG_REQUEST, TAG_RESPONSE, TAG_STATS, TAG_STATS_OK};
use tlm_serve::server::{Server, ServerConfig};
use tlm_serve::shard::{ShardAddr, ShardRouter};

fn config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServerConfig::default() }
}

/// `POST /estimate` on a fresh connection: the status, whether the reply
/// carries `Retry-After`, and the body text.
fn post_estimate(addr: SocketAddr, body: &str) -> (u16, bool, String) {
    let (status, retry_after, body) =
        client::request(addr, "POST /estimate", body).expect("exchange");
    (status, retry_after.is_some(), String::from_utf8_lossy(&body).into_owned())
}

/// Reads one `TAG_REQUEST` frame and returns `(id, request body bytes)`.
fn read_request(stream: &mut impl Read) -> (u64, Vec<u8>) {
    let (tag, id, payload) = rpc::read_frame(stream).expect("reads frame");
    assert_eq!(tag, TAG_REQUEST, "scripted shard expected a request frame");
    let req = rpc::decode_request(&payload).expect("decodes request");
    (id, req.body)
}

/// Writes a `200` completion frame echoing `body` for request `id`.
fn write_echo(stream: &mut impl Write, id: u64, body: &[u8]) {
    let resp = Response::json(200, String::from_utf8_lossy(body).into_owned());
    let payload = rpc::encode_response(&resp).expect("encodes response");
    rpc::write_frame(stream, TAG_RESPONSE, id, &payload).expect("writes frame");
}

#[test]
fn out_of_order_completions_resolve_their_own_ids() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let shard_addr = listener.local_addr().expect("addr");
    // The scripted shard reads all three requests before answering any,
    // then completes them in reverse arrival order — the front must
    // demultiplex by frame id, not by ordering assumptions.
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts");
        let frames: Vec<(u64, Vec<u8>)> = (0..3).map(|_| read_request(&mut stream)).collect();
        for (id, body) in frames.iter().rev() {
            write_echo(&mut stream, *id, body);
        }
    });

    let service = Service::new(64).with_router(Arc::new(ShardRouter::connect(&[shard_addr])));
    let handle = Server::start(config(), service).expect("starts");
    let addr = handle.addr();

    let clients: Vec<_> = ["alpha", "bravo", "charlie"]
        .into_iter()
        .map(|body| thread::spawn(move || (body, post_estimate(addr, body))))
        .collect();
    for client in clients {
        let (body, response) = client.join().expect("client thread");
        assert_eq!(response.0, 200, "got: {response:?}");
        assert!(
            response.2.contains(body),
            "response for `{body}` got someone else's: {response:?}"
        );
    }
    shard.join().expect("shard thread");
    assert_eq!(
        handle.metrics().shard_inflight_peak(0),
        3,
        "all three requests must ride the one connection concurrently"
    );
    handle.shutdown();
}

#[test]
fn shard_killed_mid_flight_fails_every_inflight_id_then_reconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let shard_addr = listener.local_addr().expect("addr");
    // Conn 1: absorb three requests, answer exactly one, then die with
    // two still in flight. Conn 2 proves the lazy reconnect serves the
    // next forward normally.
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts");
        let frames: Vec<(u64, Vec<u8>)> = (0..3).map(|_| read_request(&mut stream)).collect();
        let (id, body) = &frames[1];
        write_echo(&mut stream, *id, body);
        drop(stream);
        let (mut stream, _) = listener.accept().expect("accepts again");
        let (id, body) = read_request(&mut stream);
        write_echo(&mut stream, id, &body);
    });

    let service = Service::new(64).with_router(Arc::new(ShardRouter::connect(&[shard_addr])));
    let handle = Server::start(config(), service).expect("starts");
    let addr = handle.addr();

    let clients: Vec<_> = ["alpha", "bravo", "charlie"]
        .into_iter()
        .map(|body| thread::spawn(move || post_estimate(addr, body)))
        .collect();
    let responses: Vec<_> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    let oks = responses.iter().filter(|r| r.0 == 200).count();
    let failed: Vec<_> = responses.iter().filter(|r| r.0 == 503).collect();
    assert_eq!(oks, 1, "exactly the answered frame succeeds: {responses:?}");
    assert_eq!(failed.len(), 2, "both unanswered in-flight ids fail: {responses:?}");
    for resp in failed {
        assert!(resp.1 && resp.2.contains("unavailable"), "got: {resp:?}");
    }
    assert!(
        handle.metrics().shard_rpc_errors() >= 2,
        "every failed in-flight id counts an rpc error"
    );

    // Lazy reconnect: the very next forward opens a fresh connection.
    let recovered = post_estimate(addr, "delta");
    assert_eq!(recovered.0, 200, "got: {recovered:?}");
    assert!(recovered.2.contains("delta"), "got: {recovered:?}");
    shard.join().expect("shard thread");
    handle.shutdown();
}

#[test]
fn inflight_cap_declines_overflow_inline_with_503() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let shard_addr = listener.local_addr().expect("addr");
    let (got_frame_tx, got_frame) = mpsc::channel::<()>();
    let (release_tx, release) = mpsc::channel::<()>();
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepts");
        let (id, body) = read_request(&mut stream);
        got_frame_tx.send(()).expect("signals");
        release.recv().expect("released");
        write_echo(&mut stream, id, &body);
    });

    let config = ServerConfig { max_shard_inflight: 1, ..config() };
    let service = Service::new(64).with_router(Arc::new(ShardRouter::connect(&[shard_addr])));
    let handle = Server::start(config, service).expect("starts");
    let addr = handle.addr();

    let first = thread::spawn(move || post_estimate(addr, "alpha"));
    got_frame.recv().expect("first request reached the shard");
    // The window is full: the second forward is declined inline without
    // ever touching the shard connection.
    let declined = post_estimate(addr, "bravo");
    assert_eq!((declined.0, declined.1), (503, true), "got: {declined:?}");
    assert!(declined.2.contains("in-flight capacity"), "got: {declined:?}");
    assert_eq!(handle.metrics().shard_inflight_rejections(), 1);

    release_tx.send(()).expect("releases");
    let response = first.join().expect("first client");
    assert_eq!(response.0, 200, "got: {response:?}");
    shard.join().expect("shard thread");
    handle.shutdown();
}

#[test]
fn unix_transport_carries_frames_and_aggregated_stats() {
    let path = std::env::temp_dir().join(format!("tlm-mux-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("binds unix socket");
    // Serve any number of connections: the forward rides the mux
    // connection, while each `/metrics` scrape opens a short-lived
    // control connection for its STATS exchange.
    thread::spawn(move || {
        // The mux connection stays open for the server's lifetime, so
        // each accepted connection gets its own detached handler; the
        // accept loop parks forever and dies with the test process.
        while let Ok((mut stream, _)) = listener.accept() {
            thread::spawn(move || loop {
                let Ok((tag, id, payload)) = rpc::read_frame(&mut stream) else { return };
                match tag {
                    TAG_REQUEST => {
                        let req = rpc::decode_request(&payload).expect("decodes");
                        write_echo(&mut stream, id, &req.body);
                    }
                    TAG_STATS => {
                        let stats = concat!(
                            r#"{"stages":{"ast":{"hits":3,"misses":1}},"#,
                            r#""worker_panics":0,"trace_events":7,"trace_dropped":0}"#
                        );
                        rpc::write_frame(&mut stream, TAG_STATS_OK, CONTROL_ID, stats.as_bytes())
                            .expect("writes stats");
                    }
                    _ => return,
                }
            });
        }
    });

    let router = ShardRouter::connect_addrs(vec![ShardAddr::Unix(path.clone())]);
    let service = Service::new(64).with_router(Arc::new(router));
    let handle = Server::start(config(), service).expect("starts");
    let addr = handle.addr();

    let response = post_estimate(addr, "over-unix");
    assert_eq!(response.0, 200, "got: {response:?}");
    assert!(response.2.contains("over-unix"), "got: {response:?}");

    let page = client::scrape(addr);
    assert!(
        page.contains("tlm_serve_shard_stage_hits_total{shard=\"0\",stage=\"ast\"} 3"),
        "aggregated shard stats missing:\n{page}"
    );
    assert!(
        page.contains("tlm_serve_shard_trace_events_total{shard=\"0\"} 7"),
        "aggregated trace counters missing:\n{page}"
    );

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
