//! Error type for database construction and curation.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FlavorDbError>;

/// Errors raised by [`crate::FlavorDb`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlavorDbError {
    /// An ingredient with this name (or a synonym colliding with it)
    /// already exists.
    DuplicateIngredient(String),
    /// A molecule with this name already exists.
    DuplicateMolecule(String),
    /// No ingredient with this name or id.
    UnknownIngredient(String),
    /// No molecule with this id.
    UnknownMolecule(u32),
    /// A compound ingredient referenced itself or had no constituents.
    InvalidCompound(String),
    /// A synonym would shadow an existing canonical name.
    SynonymShadowsCanonical(String),
    /// Rebuilding a database from an artifact failed.
    Snapshot(String),
}

impl fmt::Display for FlavorDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlavorDbError::DuplicateIngredient(n) => write!(f, "duplicate ingredient '{n}'"),
            FlavorDbError::DuplicateMolecule(n) => write!(f, "duplicate molecule '{n}'"),
            FlavorDbError::UnknownIngredient(n) => write!(f, "unknown ingredient '{n}'"),
            FlavorDbError::UnknownMolecule(id) => write!(f, "unknown molecule id {id}"),
            FlavorDbError::InvalidCompound(n) => write!(f, "invalid compound ingredient '{n}'"),
            FlavorDbError::SynonymShadowsCanonical(n) => {
                write!(f, "synonym '{n}' shadows a canonical ingredient name")
            }
            FlavorDbError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for FlavorDbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(FlavorDbError::DuplicateIngredient("basil".into())
            .to_string()
            .contains("basil"));
        assert!(FlavorDbError::UnknownMolecule(9).to_string().contains('9'));
    }
}
