//! `AccessMatrix` against a model of two `BTreeMap`s.
//!
//! Random grant and revoke sequences, with users and groups mixed and
//! at least twelve users granted, so ids of one and two digits meet in
//! one list. After each step the matrix must agree with the model on
//! every effective level. It must also be written as the two-`HashMap`
//! struct it replaced is written, keys in string order (`"10"` before
//! `"9"`), and it must read back as itself. It must equal a matrix built
//! fresh from the model's grants, so one set of grants has one shape.

use proptest::prelude::*;
use serde::Serialize;
use srb_types::{AccessMatrix, GroupId, Permission, UserId};
use std::collections::{BTreeMap, HashMap};

/// The matrix as it was: two hash maps and a public level. The vendored
/// serde writes a `HashMap` with its keys sorted as strings.
#[derive(Serialize)]
struct TwoMaps {
    users: HashMap<UserId, Permission>,
    groups: HashMap<GroupId, Permission>,
    public: Permission,
}

#[derive(Default)]
struct Model {
    users: BTreeMap<u64, Permission>,
    groups: BTreeMap<u64, Permission>,
    public: Permission,
}

impl Model {
    fn apply(&mut self, m: &mut AccessMatrix, (what, id, level): (u8, u64, Permission)) {
        let map = match what {
            0 => {
                m.grant_user(UserId(id), level);
                &mut self.users
            }
            1 => {
                m.grant_group(GroupId(id), level);
                &mut self.groups
            }
            _ => {
                m.public = level;
                self.public = level;
                return;
            }
        };
        if level == Permission::None {
            map.remove(&id);
        } else {
            map.insert(id, level);
        }
    }

    fn effective(&self, user: u64, groups: &[u64]) -> Permission {
        groups
            .iter()
            .filter_map(|g| self.groups.get(g))
            .chain(self.users.get(&user))
            .fold(self.public, |p, &q| p.max(q))
    }

    fn json(&self) -> String {
        let two = TwoMaps {
            users: self.users.iter().map(|(&u, &p)| (UserId(u), p)).collect(),
            groups: self.groups.iter().map(|(&g, &p)| (GroupId(g), p)).collect(),
            public: self.public,
        };
        serde_json::to_string(&two).unwrap()
    }

    fn rebuilt(&self) -> AccessMatrix {
        let mut m = AccessMatrix::new();
        for (&u, &p) in &self.users {
            m.grant_user(UserId(u), p);
        }
        for (&g, &p) in &self.groups {
            m.grant_group(GroupId(g), p);
        }
        m.public = self.public;
        m
    }
}

fn level(n: u8) -> Permission {
    [
        Permission::None,
        Permission::Discover,
        Permission::Annotate,
        Permission::Read,
        Permission::Write,
        Permission::Own,
    ][n as usize % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matrix_matches_the_two_map_model(
        first in prop::collection::vec(1u8..6, 12..16),
        steps in prop::collection::vec((0u8..5, 0u64..24, 0u8..6), 0..60),
    ) {
        let (mut m, mut model) = (AccessMatrix::new(), Model::default());
        // Users 1..=12 and on: ids of one and two digits.
        let granted = first.iter().enumerate();
        let steps = granted
            .map(|(i, &l)| (0, i as u64 + 1, level(l)))
            .chain(steps.into_iter().map(|(w, id, l)| (w % 3, id, level(l))));
        for step in steps {
            model.apply(&mut m, step);
            for user in 0..24 {
                let groups = [user, user / 2 + 3];
                prop_assert_eq!(
                    m.effective(UserId(user), &groups.map(GroupId)),
                    model.effective(user, &groups),
                    "user {} after {:?}", user, step
                );
            }
            prop_assert_eq!(m.effective_anonymous(), model.public);
            let json = serde_json::to_string(&m).unwrap();
            prop_assert_eq!(&json, &model.json());
            prop_assert_eq!(&serde_json::from_str::<AccessMatrix>(&json).unwrap(), &m);
            prop_assert_eq!(&m, &model.rebuilt());
        }
    }
}

#[test]
fn keys_are_written_in_string_order() {
    let mut m = AccessMatrix::owned_by(UserId(9));
    for u in [10, 100, 2, 19] {
        m.grant_user(UserId(u), Permission::Read);
    }
    m.grant_group(GroupId(3), Permission::Write);
    m.grant_group(GroupId(21), Permission::Read);
    assert_eq!(
        serde_json::to_string(&m).unwrap(),
        r#"{"users":{"10":"Read","100":"Read","19":"Read","2":"Read","9":"Own"},"groups":{"21":"Read","3":"Write"},"public":"None"}"#
    );
}
