//! `tibpre-load` — the TIB-PRE load smoke: disclosure traffic with
//! grant/revoke churn against a running kgc/store/proxy node set, every
//! disclosure opened client-side.  Exits 0 only if something was served
//! and nothing failed.

mod load;

use load::{run_load, LoadConfig};
use tibpre_client::level_from_name;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("tibpre-load: {message}");
            print_usage();
            std::process::exit(2);
        }
    };

    eprintln!(
        "tibpre-load: {} clients x {} requests (pipeline {})",
        config.clients, config.requests, config.pipeline,
    );
    match run_load(&config) {
        Ok(report) => {
            println!(
                "{{\"ok\":{},\"denied\":{},\"errors\":{},\"reordered\":{},\"churn_ops\":{},\
                 \"elapsed_s\":{:.3}}}",
                report.ok,
                report.denied,
                report.errors,
                report.reordered,
                report.churn_ops,
                report.elapsed.as_secs_f64(),
            );
            if report.ok == 0 || report.errors > 0 || report.reordered > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("tibpre-load: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(args: &[String]) -> Result<LoadConfig, String> {
    let mut config = LoadConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--kgc" => config.kgc_addr = value,
            "--store" => config.store_addr = value,
            "--proxy" => config.proxy_addr = value,
            "--level" => {
                config.level =
                    level_from_name(&value).ok_or_else(|| format!("unknown level {value}"))?;
            }
            "--clients" => config.clients = parse_num(flag, &value)?,
            "--requests" => config.requests = parse_num(flag, &value)?,
            "--pipeline" => {
                config.pipeline = parse_num(flag, &value)?;
                if config.pipeline == 0 {
                    return Err("--pipeline must be at least 1".to_string());
                }
            }
            "--read-replicas" => {
                config.read_replicas = value
                    .split(',')
                    .map(|addr| addr.trim().to_string())
                    .filter(|addr| !addr.is_empty())
                    .collect();
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} {value}"))
}

fn print_usage() {
    eprintln!(
        "usage: tibpre-load [options]\n\
         \n\
         options:\n\
         \x20 --kgc <host:port>            KGC node (default 127.0.0.1:7070)\n\
         \x20 --store <host:port>          store node (default 127.0.0.1:7071)\n\
         \x20 --proxy <host:port>          proxy node (default 127.0.0.1:7072)\n\
         \x20 --level <name>               toy|low80|medium112|high128 (default toy)\n\
         \x20 --clients <n>                concurrent clients (default 4)\n\
         \x20 --requests <n>               total request budget (default 400)\n\
         \x20 --pipeline <k>               in-flight disclosures per client connection\n\
         \x20                              (default 1 = lockstep request/response)\n\
         \x20 --read-replicas <a,b,...>    round-robin reads across these replica\n\
         \x20                              store nodes (writes stay on the primary)\n\
         \n\
         16 patients x 4 records of 256 B, chosen uniformly; one patient's grant is\n\
         revoked and re-installed every 25 requests."
    );
}
