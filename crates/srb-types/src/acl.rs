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
use serde::{DeError, Deserialize, JsonReader, KeyFromString, Serialize};
use std::cmp::Ordering;

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
///
/// The grants are one list sorted by grantee. Nearly every row has one
/// grant, its owner's, and holds it inline without an allocation; a longer
/// list is binary-searched. The JSON form is two maps, `users` and
/// `groups`, keyed by id and written in the string order of their keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessMatrix {
    grants: Grants,
    /// Level granted to everyone, authenticated or not.
    pub public: Permission,
}

// Every collection and dataset row holds one inline: a field
// that grows the matrix fails the build here.
const _: () = assert!(std::mem::size_of::<AccessMatrix>() <= 32);

/// Whom a grant is for. Users sort first: the image writes the `users`
/// map before the `groups` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grantee {
    User,
    Group,
}

/// One grant: a user's or group's id and level.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Grant {
    to: Grantee,
    level: Permission,
    id: u64,
}

impl Grant {
    /// The list order: users before groups, then ids in the order of their
    /// decimal text, which is the order the image writes map keys in
    /// (`"10"` before `"9"`).
    fn order(&self, to: Grantee, id: u64) -> Ordering {
        self.to.cmp(&to).then_with(|| decimal_cmp(self.id, id))
    }
}

/// `a` and `b` in the order of their decimal text, without writing it:
/// the shorter is scaled up to the longer's digit count, and on a tie the
/// shorter, a prefix of the longer, comes first.
fn decimal_cmp(a: u64, b: u64) -> Ordering {
    let digits = |n: u64| n.checked_ilog10().unwrap_or(0) + 1;
    let (da, db) = (digits(a), digits(b));
    let scaled = |n: u64, d: u32| u128::from(n) * 10u128.pow(da.max(db) - d);
    scaled(a, da).cmp(&scaled(b, db)).then(da.cmp(&db))
}

/// The grants, sorted by [`Grant::order`]. None or one is held inline;
/// `Many` always holds two or more, so each set of grants has one shape.
#[derive(Debug, Clone, PartialEq)]
enum Grants {
    Inline(Option<Grant>),
    Many(Vec<Grant>),
}

impl Default for Grants {
    fn default() -> Self {
        Grants::Inline(None)
    }
}

impl Grants {
    fn as_slice(&self) -> &[Grant] {
        match self {
            Grants::Inline(g) => g.as_slice(),
            Grants::Many(v) => v,
        }
    }

    fn find(&self, to: Grantee, id: u64) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|g| g.order(to, id))
    }

    fn level(&self, to: Grantee, id: u64) -> Option<Permission> {
        let at = self.find(to, id).ok()?;
        Some(self.as_slice()[at].level)
    }

    /// Set a grant, replacing the grantee's earlier one.
    fn put(&mut self, grant: Grant) {
        match (self.find(grant.to, grant.id), &mut *self) {
            (Ok(at), Grants::Many(v)) => v[at] = grant,
            (Ok(_), Grants::Inline(slot)) | (Err(_), Grants::Inline(slot @ None)) => {
                *slot = Some(grant)
            }
            (Err(at), Grants::Inline(Some(old))) => {
                let pair = if at == 0 {
                    [grant, *old]
                } else {
                    [*old, grant]
                };
                *self = Grants::Many(pair.to_vec());
            }
            (Err(at), Grants::Many(v)) => v.insert(at, grant),
        }
    }

    /// Drop the grantee's grant, if any.
    fn remove(&mut self, to: Grantee, id: u64) {
        let Ok(at) = self.find(to, id) else {
            return;
        };
        match self {
            Grants::Inline(slot) => *slot = None,
            Grants::Many(v) => {
                v.remove(at);
                if let [only] = v[..] {
                    *self = Grants::Inline(Some(only));
                }
            }
        }
    }
}

impl AccessMatrix {
    /// Empty matrix: nobody but later grantees can touch the entity.
    pub fn new() -> Self {
        AccessMatrix::default()
    }

    /// Matrix with a single owner.
    pub fn owned_by(owner: UserId) -> Self {
        AccessMatrix {
            grants: Grants::Inline(Some(Grant {
                to: Grantee::User,
                level: Permission::Own,
                id: owner.0,
            })),
            public: Permission::None,
        }
    }

    /// Grant (or change) a user's level. `Permission::None` revokes.
    pub fn grant_user(&mut self, user: UserId, p: Permission) {
        self.grant(Grantee::User, user.0, p);
    }

    /// Grant (or change) a group's level. `Permission::None` revokes.
    pub fn grant_group(&mut self, group: GroupId, p: Permission) {
        self.grant(Grantee::Group, group.0, p);
    }

    fn grant(&mut self, to: Grantee, id: u64, level: Permission) {
        if level == Permission::None {
            self.grants.remove(to, id);
        } else {
            self.grants.put(Grant { to, level, id });
        }
    }

    /// Effective permission for `user` who belongs to `groups`: the maximum
    /// of the explicit user grant, any group grant, and the public level.
    pub fn effective(&self, user: UserId, groups: &[GroupId]) -> Permission {
        let mut p = self.public;
        if let Some(up) = self.grants.level(Grantee::User, user.0) {
            p = p.max(up);
        }
        for g in groups {
            if let Some(gp) = self.grants.level(Grantee::Group, g.0) {
                p = p.max(gp);
            }
        }
        p
    }

    /// Effective permission for an anonymous (unauthenticated) visitor.
    pub fn effective_anonymous(&self) -> Permission {
        self.public
    }

    /// One of the two maps: `{"<id>":<level>,…}`, in list order.
    fn write_grants(&self, to: Grantee, out: &mut String) {
        out.push('{');
        let grants = self.grants.as_slice().iter().filter(|g| g.to == to);
        for (i, g) in grants.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            serde::write_u64(g.id, out);
            out.push_str("\":");
            g.level.write_json(out);
        }
        out.push('}');
    }

    /// The row form, `[users,groups,public]`, into this empty matrix.
    fn read_row(&mut self, r: &mut JsonReader<'_>) -> Result<(), DeError> {
        let mut fields = r.array("AccessMatrix")?;
        for (to, at) in [
            (Grantee::User, "AccessMatrix.users"),
            (Grantee::Group, "AccessMatrix.groups"),
        ] {
            if !fields.next_element(r)? {
                return Err(DeError::new("missing field").at(at));
            }
            self.read_grants(r, to).map_err(|e| e.at(at))?;
        }
        if !fields.next_element(r)? {
            return Err(DeError::new("missing field").at("AccessMatrix.public"));
        }
        let public = Permission::read_json(r);
        self.public = public.map_err(|e| e.at("AccessMatrix.public"))?;
        let mut got = 3;
        while fields.next_element(r)? {
            got += 1;
            r.skip_value()?;
        }
        if got > 3 {
            return Err(serde::__arity_error("AccessMatrix", 3, got));
        }
        self.shrink();
        Ok(())
    }

    /// A decoded matrix keeps its list for good: no spare capacity.
    fn shrink(&mut self) {
        if let Grants::Many(v) = &mut self.grants {
            v.shrink_to_fit();
        }
    }

    /// Read one of the two maps into the list. A repeated key is set
    /// again, so the last one wins, as it did for the maps' decoding.
    fn read_grants(&mut self, r: &mut JsonReader<'_>, to: Grantee) -> Result<(), DeError> {
        let mut entries = r.object("AccessMatrix grants")?;
        while let Some(key) = entries.next_key(r)? {
            let id = match to {
                Grantee::User => UserId::key_parse(&key)?.0,
                Grantee::Group => GroupId::key_parse(&key)?.0,
            };
            let level = Permission::read_json(r).map_err(|e| e.at(&key))?;
            self.grants.put(Grant { to, level, id });
        }
        Ok(())
    }
}

impl Serialize for AccessMatrix {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"users\":");
        self.write_grants(Grantee::User, out);
        out.push_str(",\"groups\":");
        self.write_grants(Grantee::Group, out);
        out.push_str(",\"public\":");
        self.public.write_json(out);
        out.push('}');
    }

    /// `[users,groups,public]`, each map as in the object form.
    fn write_row(&self, out: &mut String) {
        out.push('[');
        self.write_grants(Grantee::User, out);
        out.push(',');
        self.write_grants(Grantee::Group, out);
        out.push(',');
        self.public.write_json(out);
        out.push(']');
    }
}

/// Read as the derived form of the two-map struct is: from an object,
/// unknown keys skipped and the first of a repeated field winning; from
/// an array, the fields in order, a fourth element an arity error. An
/// absent field is an error either way.
impl Deserialize for AccessMatrix {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut m = AccessMatrix::new();
        if r.peek_token() == Some(b'[') {
            m.read_row(r)?;
            return Ok(m);
        }
        let (mut users, mut groups, mut public) = (false, false, None);
        let mut fields = r.object("AccessMatrix")?;
        while let Some(key) = fields.next_key(r)? {
            match &*key {
                "users" if !users => {
                    users = true;
                    let read = m.read_grants(r, Grantee::User);
                    read.map_err(|e| e.at("AccessMatrix.users"))?;
                }
                "groups" if !groups => {
                    groups = true;
                    let read = m.read_grants(r, Grantee::Group);
                    read.map_err(|e| e.at("AccessMatrix.groups"))?;
                }
                "public" if public.is_none() => {
                    let read = Permission::read_json(r);
                    public = Some(read.map_err(|e| e.at("AccessMatrix.public"))?);
                }
                _ => r.skip_value()?,
            }
        }
        let missing = |field: &str| DeError::new("missing field").at(field);
        if !users {
            return Err(missing("AccessMatrix.users"));
        }
        if !groups {
            return Err(missing("AccessMatrix.groups"));
        }
        m.public = public.ok_or_else(|| missing("AccessMatrix.public"))?;
        m.shrink();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owners (users with `Own`), sorted.
    fn owners(m: &AccessMatrix) -> Vec<UserId> {
        let mut v: Vec<UserId> = m
            .grants
            .as_slice()
            .iter()
            .filter(|g| g.to == Grantee::User && g.level == Permission::Own)
            .map(|g| UserId(g.id))
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
