//! Node configuration and its CLI surface.

use std::path::PathBuf;
use tibpre_client::{level_from_name, level_name, NodeRole};
use tibpre_pairing::SecurityLevel;

/// Everything a node needs to boot, with CLI parsing for `tibpre-node`.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which service this node runs.
    pub role: NodeRole,
    /// The listen address (`127.0.0.1:0` binds an ephemeral port).
    pub addr: String,
    /// The pairing security level; clients must be configured identically.
    pub level: SecurityLevel,
    /// Durable state directory for store/proxy roles (`None` = in-memory).
    pub data_dir: Option<PathBuf>,
    /// The store node a proxy reads records from (required for the proxy
    /// role).
    pub store_addr: Option<String>,
    /// The primary store this node replicates from (store role only).
    /// When set the node boots as an in-memory read replica: it bootstraps
    /// from the primary's newest snapshot generations, tails WAL segments,
    /// serves reads, and rejects writes until promoted.
    pub replica_of: Option<String>,
    /// The KGC domain label (KGC role).
    pub kgc_label: String,
    /// The node/store display name.
    pub name: String,
    /// Maximum `Disclose` requests per run: one `disclose_batch` call
    /// (proxy role, at least 1).
    pub batch_max: usize,
}

impl NodeConfig {
    /// Defaults for one role: loopback ephemeral port, toy parameters (the
    /// in-process test configuration — production deployments pass
    /// `--level`).
    pub fn new(role: NodeRole) -> Self {
        NodeConfig {
            role,
            addr: "127.0.0.1:0".to_string(),
            level: SecurityLevel::Toy,
            data_dir: None,
            store_addr: None,
            replica_of: None,
            kgc_label: "tibpre-kgc".to_string(),
            name: format!("tibpre-{}", role.name()),
            batch_max: 16,
        }
    }

    /// Parses `tibpre-node` CLI arguments (without the program name).
    ///
    /// `--role kgc|proxy|store` is mandatory; everything else has a
    /// default.  Returns a human-readable message on any unknown or
    /// malformed argument.
    pub fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut role = None;
        let mut rest: Vec<(String, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone();
            if flag == "--role" {
                role = Some(
                    NodeRole::from_name(&value)
                        .ok_or_else(|| format!("unknown role {value} (kgc|proxy|store)"))?,
                );
            } else {
                rest.push((flag.clone(), value));
            }
        }
        let role = role.ok_or("missing --role kgc|proxy|store")?;
        let mut config = NodeConfig::new(role);
        for (flag, value) in rest {
            match flag.as_str() {
                "--addr" => config.addr = value,
                "--level" => {
                    config.level = level_from_name(&value).ok_or_else(|| {
                        format!("unknown level {value} (toy|low80|medium112|high128)")
                    })?;
                }
                "--data-dir" => config.data_dir = Some(PathBuf::from(value)),
                "--store" => config.store_addr = Some(value),
                "--replica-of" => config.replica_of = Some(value),
                "--kgc-label" => config.kgc_label = value,
                "--name" => config.name = value,
                "--batch-max" => {
                    config.batch_max = value
                        .parse()
                        .map_err(|_| format!("bad --batch-max {value}"))?;
                    if config.batch_max == 0 {
                        return Err("--batch-max must be at least 1".to_string());
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if config.role == NodeRole::Proxy && config.store_addr.is_none() {
            return Err(
                "the proxy role needs --store <addr> (the store node it reads records \
                        from)"
                    .to_string(),
            );
        }
        if config.replica_of.is_some() {
            if config.role != NodeRole::Store {
                return Err("--replica-of applies to the store role only".to_string());
            }
            if config.data_dir.is_some() {
                return Err(
                    "--replica-of conflicts with --data-dir: a read replica keeps its \
                     state in memory and rebuilds from the primary on boot"
                        .to_string(),
                );
            }
        }
        Ok(config)
    }

    /// The configured level's wire/CLI name.
    pub fn level_name(&self) -> &'static str {
        level_name(self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<NodeConfig, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        NodeConfig::parse_args(&owned)
    }

    #[test]
    fn parses_a_full_store_invocation() {
        let config = parse(&[
            "--role",
            "store",
            "--addr",
            "0.0.0.0:7070",
            "--level",
            "low80",
            "--data-dir",
            "/tmp/phr",
            "--name",
            "hospital-db",
        ])
        .unwrap();
        assert_eq!(config.role, NodeRole::Store);
        assert_eq!(config.addr, "0.0.0.0:7070");
        assert_eq!(config.level, SecurityLevel::Low80);
        assert_eq!(
            config.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/phr"))
        );
        assert_eq!(config.name, "hospital-db");
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&[]).unwrap_err().contains("--role"));
        assert!(parse(&["--role", "oracle"])
            .unwrap_err()
            .contains("unknown role"));
        assert!(parse(&["--role", "kgc", "--level", "strong"])
            .unwrap_err()
            .contains("unknown level"));
        assert!(parse(&["--role", "kgc", "--addr"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--role", "kgc", "--frobnicate", "7"])
            .unwrap_err()
            .contains("unknown flag"));
        // A proxy without a store node is a misconfiguration at parse time.
        assert!(parse(&["--role", "proxy"]).unwrap_err().contains("--store"));
        parse(&["--role", "proxy", "--store", "127.0.0.1:7071"]).unwrap();
    }

    #[test]
    fn scheduler_knobs_parse_and_validate() {
        let config = parse(&[
            "--role",
            "proxy",
            "--store",
            "127.0.0.1:7071",
            "--batch-max",
            "64",
        ])
        .unwrap();
        assert_eq!(config.batch_max, 64);
        // Runs are cut from what one connection sent, so there is no
        // linger window to configure.
        let proxy_of_one = ["--role", "proxy", "--store", "127.0.0.1:7071"];
        assert!(
            parse(&[&proxy_of_one[..], &["--batch-window-us", "500"]].concat())
                .unwrap_err()
                .contains("unknown flag")
        );
        // batch_max 1 is a size like any other (the proxy cuts runs of
        // one), 0 is nonsense.
        assert_eq!(
            parse(&[&proxy_of_one[..], &["--batch-max", "1"]].concat())
                .unwrap()
                .batch_max,
            1
        );
        assert!(parse(&["--role", "kgc", "--batch-max", "0"])
            .unwrap_err()
            .contains("--batch-max"));
    }

    #[test]
    fn replica_flags_are_store_only_and_in_memory() {
        let config = parse(&["--role", "store", "--replica-of", "127.0.0.1:7071"]).unwrap();
        assert_eq!(config.replica_of.as_deref(), Some("127.0.0.1:7071"));
        assert!(parse(&["--role", "kgc", "--replica-of", "127.0.0.1:7071"])
            .unwrap_err()
            .contains("store role only"));
        assert!(parse(&[
            "--role",
            "store",
            "--replica-of",
            "127.0.0.1:7071",
            "--data-dir",
            "/tmp/phr",
        ])
        .unwrap_err()
        .contains("conflicts with --data-dir"));
    }
}
