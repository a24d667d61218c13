//! Users and groups.
//!
//! SRB authenticates "a user to the data handling environment" once (single
//! sign-on) and maintains ACLs "for users and user groups". The catalog
//! stores the verifier for challenge–response auth — never the password
//! itself.

use crate::pages::RowPages;
use crate::table::Table;
use crate::wal::WalHook;
use serde::{Deserialize, Serialize};
use srb_types::sync::{LockRank, RwLock};
use srb_types::{GroupId, HmacKey, IdGen, SrbError, SrbResult, UserId};

/// A registered grid user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct User {
    /// Catalog id.
    pub id: UserId,
    /// Login name, unique per domain.
    pub name: String,
    /// Administrative domain ("sdsc", "caltech", …).
    pub domain: String,
    /// HMAC verifier derived from the password (never the password).
    pub verifier: [u8; 32],
    /// Groups this user belongs to.
    pub groups: Vec<GroupId>,
    /// Grid administrators may register proxy commands and resources.
    pub is_admin: bool,
}

impl User {
    /// Qualified name `name@domain` used in tickets and audit rows.
    pub fn qualified(&self) -> String {
        format!("{}@{}", self.name, self.domain)
    }
}

/// A user group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Group {
    /// Catalog id.
    pub id: GroupId,
    /// Group name, unique grid-wide.
    pub name: String,
    /// Member users.
    pub members: Vec<UserId>,
}

/// Domain-separated verifier derivation: HMAC(password, "srb-verifier").
pub fn derive_verifier(password: &str) -> [u8; 32] {
    HmacKey::new(password.as_bytes()).sign(b"srb-verifier")
}

/// The user/group tables, under one lock.
#[derive(Debug)]
pub struct UserTable {
    pub(crate) users: RwLock<(Table<User>, Table<Group>)>,
}

impl Default for UserTable {
    fn default() -> Self {
        UserTable::restore(
            RowPages::default(),
            RowPages::default(),
            &WalHook::default(),
        )
    }
}

impl UserTable {
    /// Empty tables.
    pub fn new() -> Self {
        UserTable::default()
    }

    /// The tables over image rows, logging through `wal`.
    pub(crate) fn restore(users: RowPages<User>, groups: RowPages<Group>, wal: &WalHook) -> Self {
        let rows = (Table::restore(users, wal), Table::restore(groups, wal));
        UserTable {
            users: RwLock::new(LockRank::McatTable, "mcat.users", rows),
        }
    }

    /// Register a user; names are unique within a domain.
    pub fn register(
        &self,
        ids: &IdGen,
        name: &str,
        domain: &str,
        password: &str,
        is_admin: bool,
    ) -> SrbResult<UserId> {
        let mut g = self.users.write();
        let users = &mut g.0;
        if users
            .derived()
            .contains_key(&(name.to_string(), domain.to_string()))
        {
            return Err(SrbError::AlreadyExists(format!("user '{name}@{domain}'")));
        }
        let id: UserId = ids.next();
        let row = User {
            id,
            name: name.to_string(),
            domain: domain.to_string(),
            verifier: derive_verifier(password),
            groups: Vec::new(),
            is_admin,
        };
        users.put(0, row);
        Ok(id)
    }

    /// Look up by qualified name.
    pub fn find(&self, name: &str, domain: &str) -> Option<User> {
        let g = self.users.read();
        let users = &g.0;
        users
            .derived()
            .get(&(name.to_string(), domain.to_string()))
            .and_then(|&id| users.get(id))
            .cloned()
    }

    /// Look up by id.
    pub fn get(&self, id: UserId) -> SrbResult<User> {
        self.users
            .read()
            .0
            .get(id)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("user {id}")))
    }

    /// Groups the user belongs to.
    pub(crate) fn groups_of(&self, id: UserId) -> Vec<GroupId> {
        self.users
            .read()
            .0
            .get(id)
            .map(|u| u.groups.clone())
            .unwrap_or_default()
    }

    /// Create a group.
    pub fn create_group(&self, ids: &IdGen, name: &str) -> SrbResult<GroupId> {
        let mut g = self.users.write();
        let groups = &mut g.1;
        if groups.derived().contains_key(name) {
            return Err(SrbError::AlreadyExists(format!("group '{name}'")));
        }
        let id: GroupId = ids.next();
        let row = Group {
            id,
            name: name.to_string(),
            members: Vec::new(),
        };
        groups.put(0, row);
        Ok(id)
    }

    /// Add a user to a group (idempotent).
    pub fn add_to_group(&self, user: UserId, group: GroupId) -> SrbResult<()> {
        let mut g = self.users.write();
        let (users, groups) = &mut *g;
        if !groups.contains(group) {
            return Err(SrbError::NotFound(format!("group {group}")));
        }
        users
            .update(user, 0, |u| {
                if !u.groups.contains(&group) {
                    u.groups.push(group);
                }
            })
            .ok_or_else(|| SrbError::NotFound(format!("user {user}")))?;
        groups.update(group, 0, |grp| {
            if !grp.members.contains(&user) {
                grp.members.push(user);
            }
        });
        Ok(())
    }

    /// Remove a user from a group.
    pub fn remove_from_group(&self, user: UserId, group: GroupId) -> SrbResult<()> {
        let mut g = self.users.write();
        let (users, groups) = &mut *g;
        users.update(user, 0, |u| u.groups.retain(|&gid| gid != group));
        groups.update(group, 0, |grp| grp.members.retain(|&uid| uid != user));
        Ok(())
    }

    /// Get a group.
    pub fn get_group(&self, id: GroupId) -> SrbResult<Group> {
        self.users
            .read()
            .1
            .get(id)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("group {id}")))
    }

    /// Find a group by name.
    pub fn find_group(&self, name: &str) -> Option<Group> {
        let g = self.users.read();
        let groups = &g.1;
        groups
            .derived()
            .get(name)
            .and_then(|&id| groups.get(id))
            .cloned()
    }

    /// Number of registered users.
    pub(crate) fn user_count(&self) -> usize {
        self.users.read().0.len()
    }

    /// All users (for MySRB admin pages), sorted by id.
    pub fn list_users(&self) -> Vec<User> {
        self.users.read().0.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (UserTable, IdGen) {
        (UserTable::new(), IdGen::new())
    }

    #[test]
    fn register_and_find() {
        let (t, ids) = table();
        let id = t.register(&ids, "sekar", "sdsc", "pw", false).unwrap();
        let u = t.find("sekar", "sdsc").unwrap();
        assert_eq!(u.id, id);
        assert_eq!(u.qualified(), "sekar@sdsc");
        assert!(t.find("sekar", "caltech").is_none());
    }

    #[test]
    fn duplicate_in_same_domain_rejected() {
        let (t, ids) = table();
        t.register(&ids, "moore", "sdsc", "a", false).unwrap();
        assert!(t.register(&ids, "moore", "sdsc", "b", false).is_err());
        // Same name in another domain is fine.
        assert!(t.register(&ids, "moore", "npaci", "c", false).is_ok());
    }

    #[test]
    fn verifier_is_not_the_password() {
        let (t, ids) = table();
        t.register(&ids, "u", "d", "secret", false).unwrap();
        let u = t.find("u", "d").unwrap();
        assert_ne!(&u.verifier[..], b"secret");
        assert_eq!(u.verifier, derive_verifier("secret"));
        assert_ne!(derive_verifier("secret"), derive_verifier("Secret"));
    }

    #[test]
    fn group_membership_round_trip() {
        let (t, ids) = table();
        let u = t.register(&ids, "u", "d", "p", false).unwrap();
        let g = t.create_group(&ids, "curators").unwrap();
        t.add_to_group(u, g).unwrap();
        assert_eq!(t.groups_of(u), vec![g]);
        assert_eq!(t.get_group(g).unwrap().members, vec![u]);
        // Idempotent.
        t.add_to_group(u, g).unwrap();
        assert_eq!(t.groups_of(u).len(), 1);
        t.remove_from_group(u, g).unwrap();
        assert!(t.groups_of(u).is_empty());
        assert!(t.get_group(g).unwrap().members.is_empty());
    }

    #[test]
    fn group_names_unique() {
        let (t, ids) = table();
        t.create_group(&ids, "g").unwrap();
        assert!(t.create_group(&ids, "g").is_err());
        assert!(t.find_group("g").is_some());
        assert!(t.find_group("h").is_none());
    }

    #[test]
    fn add_to_missing_group_or_user_errors() {
        let (t, ids) = table();
        let u = t.register(&ids, "u", "d", "p", false).unwrap();
        assert!(t.add_to_group(u, GroupId(99)).is_err());
        let g = t.create_group(&ids, "g").unwrap();
        assert!(t.add_to_group(UserId(99), g).is_err());
    }

    #[test]
    fn list_users_sorted() {
        let (t, ids) = table();
        t.register(&ids, "a", "d", "p", false).unwrap();
        t.register(&ids, "b", "d", "p", true).unwrap();
        let users = t.list_users();
        assert_eq!(users.len(), 2);
        assert!(users[0].id < users[1].id);
        assert_eq!(t.user_count(), 2);
    }
}
