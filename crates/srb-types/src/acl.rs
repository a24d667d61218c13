//! Access control: permissions, roles, and per-entity access matrices.
//!
//! The paper calls for "a role-based access matrix from curator to public"
//! with control "at multiple levels (collections, datasets, resources, etc)
//! for users and user groups beyond that offered by file systems".
//!
//! `Permission` is a totally ordered ladder: a level implies every level
//! below it. `AccessMatrix` maps users and groups to levels and is attached
//! to collections, datasets and resources by the MCAT. Annotations are the
//! one exception the paper carves out: any user with read permission may
//! annotate, which is why `Annotate` sits *below* `Read` in the ladder.

use crate::id::{GroupId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Permission levels, weakest to strongest. Each level implies all lower
/// levels.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Permission {
    /// No access at all.
    #[default]
    None,
    /// May discover the object in listings and queries.
    Discover,
    /// May attach annotations/comments/ratings (paper: any reader may
    /// annotate, so `Read` implies this).
    Annotate,
    /// May read data and metadata.
    Read,
    /// May write data and add/modify own metadata.
    Write,
    /// Full control: change ACLs, delete, manage structural metadata.
    Own,
}

impl Permission {
    /// Does this level satisfy a requirement of `needed`?
    #[inline]
    pub fn allows(self, needed: Permission) -> bool {
        self >= needed
    }

    /// Parse the spelling used in MySRB forms.
    pub fn parse(s: &str) -> Option<Permission> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "none" => Permission::None,
            "discover" => Permission::Discover,
            "annotate" => Permission::Annotate,
            "read" => Permission::Read,
            "write" => Permission::Write,
            "own" | "owner" => Permission::Own,
            _ => return None,
        })
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Permission::None => "none",
            Permission::Discover => "discover",
            Permission::Annotate => "annotate",
            Permission::Read => "read",
            Permission::Write => "write",
            Permission::Own => "own",
        }
    }
}

/// The curator-to-public role ladder MySRB presents. Roles are named bundles
/// of permissions used when sharing a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Anonymous public access: browse and search only.
    Public,
    /// A registered reader: read data + metadata, may annotate.
    Reader,
    /// A contributor: may ingest new items and edit own metadata.
    Contributor,
    /// The collection curator: full control.
    Curator,
}

impl Role {
    /// The permission level a role grants.
    pub fn permission(self) -> Permission {
        match self {
            Role::Public => Permission::Discover,
            Role::Reader => Permission::Read,
            Role::Contributor => Permission::Write,
            Role::Curator => Permission::Own,
        }
    }

    /// All roles, weakest first.
    pub fn all() -> &'static [Role] {
        &[Role::Public, Role::Reader, Role::Contributor, Role::Curator]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Public => "public",
            Role::Reader => "reader",
            Role::Contributor => "contributor",
            Role::Curator => "curator",
        }
    }
}

/// Per-entity access matrix: explicit user grants, group grants, and a
/// public (anonymous) level.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessMatrix {
    users: HashMap<UserId, Permission>,
    groups: HashMap<GroupId, Permission>,
    /// Level granted to everyone, authenticated or not.
    pub public: Permission,
}

impl AccessMatrix {
    /// Empty matrix: nobody but later grantees can touch the entity.
    pub fn new() -> Self {
        AccessMatrix::default()
    }

    /// Matrix with a single owner.
    pub fn owned_by(owner: UserId) -> Self {
        let mut m = AccessMatrix::new();
        m.grant_user(owner, Permission::Own);
        m
    }

    /// Grant (or change) a user's level. `Permission::None` revokes.
    pub fn grant_user(&mut self, user: UserId, p: Permission) {
        if p == Permission::None {
            self.users.remove(&user);
        } else {
            self.users.insert(user, p);
        }
    }

    /// Grant (or change) a group's level. `Permission::None` revokes.
    pub fn grant_group(&mut self, group: GroupId, p: Permission) {
        if p == Permission::None {
            self.groups.remove(&group);
        } else {
            self.groups.insert(group, p);
        }
    }

    /// Effective permission for `user` who belongs to `groups`: the maximum
    /// of the explicit user grant, any group grant, and the public level.
    pub fn effective(&self, user: UserId, groups: &[GroupId]) -> Permission {
        let mut p = self.public;
        if let Some(&up) = self.users.get(&user) {
            p = p.max(up);
        }
        for g in groups {
            if let Some(&gp) = self.groups.get(g) {
                p = p.max(gp);
            }
        }
        p
    }

    /// Effective permission for an anonymous (unauthenticated) visitor.
    pub fn effective_anonymous(&self) -> Permission {
        self.public
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owners (users with `Own`), sorted.
    fn owners(m: &AccessMatrix) -> Vec<UserId> {
        let mut v: Vec<UserId> = m
            .users
            .iter()
            .filter(|(_, p)| **p == Permission::Own)
            .map(|(u, _)| *u)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn permission_ladder_implies_lower_levels() {
        assert!(Permission::Own.allows(Permission::Read));
        assert!(Permission::Read.allows(Permission::Annotate));
        assert!(Permission::Read.allows(Permission::Discover));
        assert!(!Permission::Annotate.allows(Permission::Read));
        assert!(!Permission::None.allows(Permission::Discover));
        assert!(Permission::None.allows(Permission::None));
    }

    #[test]
    fn role_ladder_matches_paper() {
        assert_eq!(Role::Public.permission(), Permission::Discover);
        assert_eq!(Role::Curator.permission(), Permission::Own);
        // Readers can annotate (paper: "can be inserted by any user with a
        // read permission").
        assert!(Role::Reader.permission().allows(Permission::Annotate));
        // Contributors cannot change ACLs.
        assert!(!Role::Contributor.permission().allows(Permission::Own));
    }

    #[test]
    fn effective_takes_maximum_of_grants() {
        let mut m = AccessMatrix::new();
        let u = UserId(1);
        let g = GroupId(10);
        m.grant_user(u, Permission::Read);
        m.grant_group(g, Permission::Write);
        assert_eq!(m.effective(u, &[]), Permission::Read);
        assert_eq!(m.effective(u, &[g]), Permission::Write);
        assert_eq!(m.effective(UserId(2), &[]), Permission::None);
        m.public = Permission::Discover;
        assert_eq!(m.effective(UserId(2), &[]), Permission::Discover);
        assert_eq!(m.effective_anonymous(), Permission::Discover);
    }

    #[test]
    fn granting_none_revokes() {
        let mut m = AccessMatrix::owned_by(UserId(1));
        assert_eq!(m.effective(UserId(1), &[]), Permission::Own);
        m.grant_user(UserId(1), Permission::None);
        assert_eq!(m.effective(UserId(1), &[]), Permission::None);
        assert!(owners(&m).is_empty());
    }

    #[test]
    fn owners_lists_all_owners_sorted() {
        let mut m = AccessMatrix::owned_by(UserId(5));
        m.grant_user(UserId(2), Permission::Own);
        m.grant_user(UserId(3), Permission::Read);
        assert_eq!(owners(&m), vec![UserId(2), UserId(5)]);
    }

    #[test]
    fn permission_parse_round_trip() {
        for p in [
            Permission::None,
            Permission::Discover,
            Permission::Annotate,
            Permission::Read,
            Permission::Write,
            Permission::Own,
        ] {
            assert_eq!(Permission::parse(p.name()), Some(p));
        }
        assert_eq!(Permission::parse("OWNER"), Some(Permission::Own));
        assert_eq!(Permission::parse("root"), None);
    }
}
