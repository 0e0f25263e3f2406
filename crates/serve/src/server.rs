//! The `ehp serve` accept/dispatch loop over a **Unix domain socket**.
//!
//! Requests and responses are [`frame`]s. Every request is a JSON
//! object with an `op` field; the server answers `ping`, `stats`, and
//! `shutdown` itself and delegates everything else to the injected
//! [`Handler`] (the harness implements `run` there — this crate knows
//! nothing about experiments). A handler may stream any number of
//! intermediate frames (per-scenario summaries) before its final
//! response; the server marks exactly the final frame of each exchange
//! with `"done": true`, which is how [`call`] knows the response is
//! complete.
//!
//! Connections are served one at a time in accept order — the daemon
//! exists to amortise the result cache across requests, not to
//! multiplex clients, and a single-threaded loop keeps the stats and
//! cache mutation story trivially race-free. A client that sends a
//! malformed frame is disconnected; the daemon itself only exits on a
//! `shutdown` request, returning the final [`ServeStats`].

use std::fs;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Instant;

use ehp_sim_core::json::Json;

use crate::frame;
use crate::stats::ServeStats;

/// Request semantics injected by the embedding binary.
///
/// `handle` answers one non-builtin request. It may stream intermediate
/// frames through `emit` (delivered to the client before the final
/// response), fold traffic into `stats` (cache deltas, scenario
/// and rejection counts), and returns the final response body — the
/// server adds `"done": true` and request accounting itself.
pub trait Handler {
    /// Answers one request.
    fn handle(
        &mut self,
        request: &Json,
        stats: &mut ServeStats,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> Json;
}

/// Marks `response` as the final frame of an exchange.
fn mark_done(response: Json) -> Json {
    match response {
        Json::Obj(mut map) => {
            map.insert("done".to_string(), Json::Bool(true));
            Json::Obj(map)
        }
        other => Json::object([("done", Json::Bool(true)), ("result", other)]),
    }
}

/// Builds the server's own response to a builtin op.
fn builtin(op: &str, stats: &ServeStats) -> Json {
    let mut body = match op {
        "stats" => stats.to_json(),
        _ => Json::object([] as [(&str, Json); 0]),
    };
    if let Json::Obj(map) = &mut body {
        map.insert("ok".to_string(), Json::Bool(true));
        map.insert("op".to_string(), Json::from(op));
    }
    body
}

/// Binds `socket` and serves until a `shutdown` request arrives;
/// returns the accumulated stats. A pre-existing socket file is
/// replaced (stale sockets from a killed daemon would otherwise block
/// rebinding forever).
///
/// # Errors
///
/// Only bind/setup failures error out; per-connection I/O problems
/// disconnect that client and the loop continues.
pub fn serve(socket: &Path, handler: &mut dyn Handler) -> io::Result<ServeStats> {
    if let Some(parent) = socket.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let _ = fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let mut stats = ServeStats::new();
    let mut shutdown = false;
    while !shutdown {
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        // A clean close or a malformed frame drops this client.
        while let Ok(Some(request)) = frame::read_frame(&mut stream) {
            let started = Instant::now();
            let op = request.get("op").and_then(Json::as_str).unwrap_or("");
            let response = match op {
                "ping" | "stats" => builtin(op, &stats),
                "shutdown" => {
                    shutdown = true;
                    builtin(op, &stats)
                }
                _ => {
                    let mut emit = |j: &Json| frame::write_frame(&mut stream, j);
                    handler.handle(&request, &mut stats, &mut emit)
                }
            };
            stats.requests += 1;
            stats.record_latency_ms(started.elapsed().as_secs_f64() * 1e3);
            if frame::write_frame(&mut stream, &mark_done(response)).is_err() || shutdown {
                break;
            }
        }
    }
    let _ = fs::remove_file(socket);
    Ok(stats)
}

/// Client side of one exchange: connect, send `request`, and collect
/// frames until the `"done": true` terminator (inclusive).
///
/// # Errors
///
/// Connection, write, and read failures propagate; EOF before the
/// terminator is `UnexpectedEof`.
pub fn call(socket: &Path, request: &Json) -> io::Result<Vec<Json>> {
    let mut stream = UnixStream::connect(socket)?;
    frame::write_frame(&mut stream, request)?;
    let mut frames = Vec::new();
    loop {
        match frame::read_frame(&mut stream)? {
            Some(json) => {
                let done = json.get("done").and_then(Json::as_bool) == Some(true);
                frames.push(json);
                if done {
                    return Ok(frames);
                }
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed before the done frame",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Streams one frame per item in `request.items`, then reports the
    /// count — a miniature of the harness run handler.
    struct EchoHandler;

    impl Handler for EchoHandler {
        fn handle(
            &mut self,
            request: &Json,
            stats: &mut ServeStats,
            emit: &mut dyn FnMut(&Json) -> io::Result<()>,
        ) -> Json {
            let items = request.get("items").and_then(Json::as_arr).unwrap_or(&[]);
            for item in items {
                stats.scenarios += 1;
                let _ = emit(&Json::object([
                    ("event", Json::from("item")),
                    ("item", item.clone()),
                ]));
            }
            Json::object([
                ("ok", Json::Bool(true)),
                ("count", Json::from(items.len() as u64)),
            ])
        }
    }

    fn sock_path(name: &str) -> PathBuf {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/serve-sock");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_conversation_ping_run_stats_shutdown() {
        let socket = sock_path("full.sock");
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || serve(&server_socket, &mut EchoHandler).unwrap());

        // The daemon may not have bound yet; retry the first connect.
        let ping = Json::object([("op", Json::from("ping"))]);
        let mut pong = None;
        for _ in 0..200 {
            match call(&socket, &ping) {
                Ok(frames) => {
                    pong = Some(frames);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        let pong = pong.expect("daemon never came up");
        assert_eq!(pong.len(), 1);
        assert_eq!(pong[0].get("ok"), Some(&Json::Bool(true)));

        // A streaming request: two item frames then the done frame.
        let run = Json::object([
            ("op", Json::from("run")),
            ("items", Json::array([Json::from(1u64), Json::from(2u64)])),
        ]);
        let frames = call(&socket, &run).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].get("event"), Some(&Json::from("item")));
        assert_eq!(frames[1].get("item"), Some(&Json::from(2u64)));
        assert_eq!(frames[2].get("count"), Some(&Json::from(2u64)));
        assert_eq!(frames[2].get("done"), Some(&Json::Bool(true)));

        // Stats reflect the two completed requests and two scenarios.
        let frames = call(&socket, &Json::object([("op", Json::from("stats"))])).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get("requests"), Some(&Json::from(2u64)));
        assert_eq!(frames[0].get("scenarios"), Some(&Json::from(2u64)));
        assert!(frames[0].get("latency_ms").is_some());

        let frames = call(&socket, &Json::object([("op", Json::from("shutdown"))])).unwrap();
        assert_eq!(frames[0].get("op"), Some(&Json::from("shutdown")));

        let final_stats = server.join().unwrap();
        assert_eq!(final_stats.requests, 4);
        assert!(!socket.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn malformed_client_is_disconnected_but_daemon_survives() {
        use std::io::Write as _;
        let socket = sock_path("malformed.sock");
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || serve(&server_socket, &mut EchoHandler).unwrap());
        let ping = Json::object([("op", Json::from("ping"))]);
        for _ in 0..200 {
            if call(&socket, &ping).is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Send garbage: an oversized length prefix. The server must
        // drop this connection, not die.
        let mut bad = UnixStream::connect(&socket).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        drop(bad);

        // The daemon still answers a well-formed client afterwards.
        let frames = call(&socket, &ping).unwrap();
        assert_eq!(frames[0].get("ok"), Some(&Json::Bool(true)));
        call(&socket, &Json::object([("op", Json::from("shutdown"))])).unwrap();
        server.join().unwrap();
    }
}
