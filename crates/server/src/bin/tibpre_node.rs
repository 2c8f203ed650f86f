//! `tibpre-node` — one TIB-PRE node: `--role kgc|proxy|store`.
//!
//! Also carries two admin verbs: `--status <addr>` prints what any node
//! reports about itself (its run and backlog counters, and a store's
//! replication positions and write gate) as one JSON object, and
//! `--promote <addr>` opens a replica's write gate after its primary is
//! lost.

use tibpre_client::{params_for_level, ClientConfig, Connection, Request};
use tibpre_pairing::SecurityLevel;
use tibpre_server::{config::NodeConfig, node, signal};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if let Some(code) = run_admin(&args) {
        std::process::exit(code);
    }
    let config = match NodeConfig::parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("tibpre-node: {message}");
            print_usage();
            std::process::exit(2);
        }
    };

    signal::install();
    let handle = match node::start(config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("tibpre-node: failed to start: {e}");
            std::process::exit(1);
        }
    };

    match &config.replica_of {
        Some(primary) => eprintln!(
            "tibpre-node: {} role listening on {} (level {}, name {:?}, replica of {primary})",
            config.role.name(),
            handle.addr(),
            config.level_name(),
            config.name,
        ),
        None => eprintln!(
            "tibpre-node: {} role listening on {} (level {}, name {:?})",
            config.role.name(),
            handle.addr(),
            config.level_name(),
            config.name,
        ),
    }

    handle.wait();
    eprintln!("tibpre-node: drained and stopped");
}

/// Handles the admin verbs (`--status`, `--promote`); returns the process
/// exit code, or `None` when the arguments describe a normal node boot.
fn run_admin(args: &[String]) -> Option<i32> {
    let verb = match args.first().map(String::as_str) {
        Some(verb @ ("--status" | "--promote")) => verb,
        _ => return None,
    };
    let Some(addr) = args.get(1).filter(|_| args.len() == 2) else {
        eprintln!("tibpre-node: {verb} needs exactly one <host:port>");
        return Some(2);
    };
    // Status and promote frames carry no group elements, so the parameter
    // level never matters for decoding them.
    let params = params_for_level(SecurityLevel::Toy);
    let mut conn = match Connection::connect(addr.as_str(), &params, &ClientConfig::default()) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("tibpre-node: cannot reach {addr}: {e}");
            return Some(1);
        }
    };
    let answer = if verb == "--promote" {
        conn.call_ok(&Request::Promote)
            .map(|()| "{\"promoted\":true}".to_string())
    } else {
        conn.stats().map(|s| {
            format!(
                "{{\"writable\":{},\"positions\":{:?},\"batches\":{},\"batched_requests\":{},\
                 \"bypass\":{},\"queue_depth\":{},\"queue_peak\":{},\"hist\":{:?}}}",
                s.writable,
                s.positions,
                s.batches,
                s.batched_requests,
                s.bypass,
                s.queue_depth,
                s.queue_peak,
                s.hist,
            )
        })
    };
    Some(match answer {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("tibpre-node: {verb} failed: {e}");
            1
        }
    })
}

fn print_usage() {
    eprintln!(
        "usage: tibpre-node --role kgc|proxy|store [options]\n\
         \n\
         options:\n\
         \x20 --addr <host:port>           listen address (default 127.0.0.1:0)\n\
         \x20 --level <name>               toy|low80|medium112|high128 (default toy)\n\
         \x20 --data-dir <path>            durable state directory (default in-memory)\n\
         \x20 --store <host:port>          store node a proxy reads from (proxy only, required;\n\
         \x20                              one connection per concurrent store call)\n\
         \x20 --replica-of <host:port>     primary store to replicate from (store only; in-memory\n\
         \x20                              read replica: rejects writes until promoted)\n\
         \x20 --kgc-label <label>          KGC domain label (default tibpre-kgc)\n\
         \x20 --name <name>                node display/store name\n\
         \x20 --batch-max <n>              max Disclose requests per run, proxy role\n\
         \x20                              (default 16, at least 1)\n\
         \n\
         admin verbs (connect to a running node and exit):\n\
         \x20 --status <host:port>         print the node's run counters and, on a store,\n\
         \x20                              its replication positions and write gate as JSON\n\
         \x20 --promote <host:port>        open a replica's write gate (primary lost)"
    );
}
