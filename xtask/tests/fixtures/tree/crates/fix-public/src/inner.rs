//! The home of a re-exported type.

pub struct Reexported;
