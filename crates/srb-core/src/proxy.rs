//! Method objects: remote proxy commands and proxy functions.
//!
//! Paper §4, object type 5: "The first type of method object runs an
//! executable program that is invoked by the SRB as a remote proxy command.
//! A proxy command is an executable that is available in the bin directory
//! of a SRB server and is made available for execution by the SRB
//! administrator … The second method is an invocation of a proxy function
//! inside SRB."
//!
//! Commands are closures registered per server (the "bin directory"); only
//! administrators may register them — the paper's security precaution.

use srb_types::sync::{LockRank, RwLock};
use srb_types::{SrbError, SrbResult};
use std::collections::HashMap;

type CommandFn = Box<dyn Fn(&[String]) -> Vec<u8> + Send + Sync>;

/// The per-server registry of executable proxy commands and functions.
pub struct ProxyRegistry {
    commands: RwLock<HashMap<String, CommandFn>>,
    functions: RwLock<HashMap<String, CommandFn>>,
}

impl Default for ProxyRegistry {
    fn default() -> Self {
        ProxyRegistry {
            commands: RwLock::new(LockRank::CoreState, "core.proxy.commands", HashMap::new()),
            functions: RwLock::new(LockRank::CoreState, "core.proxy.functions", HashMap::new()),
        }
    }
}

impl ProxyRegistry {
    /// Empty registry with the built-in proxy functions installed.
    pub fn new(server_name: &str) -> Self {
        let reg = ProxyRegistry::default();
        // `srbps` — the paper's worked example: "shows the process status
        // similar to 'ps' command in Unix".
        let name = server_name.to_string();
        reg.install_command("srbps", move |args| {
            let flags = if args.is_empty() {
                String::new()
            } else {
                format!(" (flags: {})", args.join(" "))
            };
            format!("PID   CMD\n1     srbMaster [{name}]\n2     srbServer [{name}]{flags}\n")
                .into_bytes()
        });
        reg
    }

    /// Install an executable into the server's bin directory
    /// (administrator action).
    pub(crate) fn install_command<F>(&self, name: &str, f: F)
    where
        F: Fn(&[String]) -> Vec<u8> + Send + Sync + 'static,
    {
        self.commands.write().insert(name.to_string(), Box::new(f));
    }

    /// Install an in-server proxy function (e.g. a metadata extractor).
    pub fn install_function<F>(&self, name: &str, f: F)
    where
        F: Fn(&[String]) -> Vec<u8> + Send + Sync + 'static,
    {
        self.functions.write().insert(name.to_string(), Box::new(f));
    }

    /// Execute a registered command with user-supplied arguments; the
    /// result is "piped back to the browser".
    pub fn run_command(&self, name: &str, args: &[String]) -> SrbResult<Vec<u8>> {
        let g = self.commands.read();
        let f = g.get(name).ok_or_else(|| {
            SrbError::NotFound(format!("proxy command '{name}' not in server bin"))
        })?;
        Ok(f(args))
    }

    /// Invoke a proxy function.
    pub(crate) fn run_function(&self, name: &str, args: &[String]) -> SrbResult<Vec<u8>> {
        let g = self.functions.read();
        let f = g
            .get(name)
            .ok_or_else(|| SrbError::NotFound(format!("proxy function '{name}'")))?;
        Ok(f(args))
    }

    /// Does the named command exist?
    pub(crate) fn has_command(&self, name: &str) -> bool {
        self.commands.read().contains_key(name)
    }

    /// Does the named function exist?
    pub(crate) fn has_function(&self, name: &str) -> bool {
        self.functions.read().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_srbps_works() {
        let reg = ProxyRegistry::new("srb-sdsc");
        let out = reg.run_command("srbps", &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("srbMaster [srb-sdsc]"));
        assert!(reg.has_command("srbps"));
    }

    #[test]
    fn command_line_parameters_passed_through() {
        let reg = ProxyRegistry::new("s");
        let out = reg.run_command("srbps", &["-ef".to_string()]).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("flags: -ef"));
    }

    #[test]
    fn custom_commands_and_functions() {
        let reg = ProxyRegistry::new("s");
        reg.install_command("echo", |args| args.join(" ").into_bytes());
        reg.install_function("double", |args| {
            let n: i64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0);
            (n * 2).to_string().into_bytes()
        });
        assert_eq!(
            reg.run_command("echo", &["a".into(), "b".into()]).unwrap(),
            b"a b"
        );
        assert_eq!(reg.run_function("double", &["21".into()]).unwrap(), b"42");
    }

    #[test]
    fn unknown_names_rejected() {
        let reg = ProxyRegistry::new("s");
        assert!(matches!(
            reg.run_command("rm", &[]),
            Err(SrbError::NotFound(_))
        ));
        assert!(reg.run_function("nope", &[]).is_err());
        assert!(!reg.has_function("nope"));
    }
}
