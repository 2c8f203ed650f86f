//! PHR record categories and their mapping to scheme type tags.
//!
//! Section 5 of the paper gives three examples — illness history (`t1`), food
//! statistics (`t2`) and emergency data (`t3`) — and notes that the patient
//! categorises data "according to her privacy concerns".  The enum below
//! provides the common categories plus a free-form [`Category::Custom`].

use core::fmt;
use tibpre_core::TypeTag;

/// A category of personal health data.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Diagnoses, surgeries, chronic conditions (the paper's `t1`).
    IllnessHistory,
    /// Nutrition and lifestyle data the patient collects herself (the paper's `t2`).
    FoodStatistics,
    /// The minimal data set needed in an emergency (the paper's `t3`).
    Emergency,
    /// Prescriptions and drug reactions.
    Medication,
    /// Laboratory test results.
    LabResults,
    /// Vaccination records.
    Vaccinations,
    /// Mental-health notes (often the most privacy-sensitive category).
    MentalHealth,
    /// Any other category, labelled by the patient.
    Custom(String),
}

tibpre_wire::message! {
    fields {
        Category: |w, v| w.put_bytes(v.label().as_bytes()), |r| Ok(Category::from_label(&r.string()?));
    }
}

impl Category {
    /// The canonical label used as the scheme's type tag.
    pub fn label(&self) -> String {
        match self {
            Category::IllnessHistory => "illness-history".to_string(),
            Category::FoodStatistics => "food-statistics".to_string(),
            Category::Emergency => "emergency".to_string(),
            Category::Medication => "medication".to_string(),
            Category::LabResults => "lab-results".to_string(),
            Category::Vaccinations => "vaccinations".to_string(),
            Category::MentalHealth => "mental-health".to_string(),
            Category::Custom(label) => format!("custom:{label}"),
        }
    }

    /// The scheme-level type tag for this category.
    pub fn type_tag(&self) -> TypeTag {
        TypeTag::new(self.label())
    }

    /// Parses a label back into a category.
    pub fn from_label(label: &str) -> Self {
        match label {
            "illness-history" => Category::IllnessHistory,
            "food-statistics" => Category::FoodStatistics,
            "emergency" => Category::Emergency,
            "medication" => Category::Medication,
            "lab-results" => Category::LabResults,
            "vaccinations" => Category::Vaccinations,
            "mental-health" => Category::MentalHealth,
            other => Category::Custom(other.strip_prefix("custom:").unwrap_or(other).to_string()),
        }
    }

    /// The standard (non-custom) categories.
    pub fn standard() -> Vec<Category> {
        vec![
            Category::IllnessHistory,
            Category::FoodStatistics,
            Category::Emergency,
            Category::Medication,
            Category::LabResults,
            Category::Vaccinations,
            Category::MentalHealth,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for c in Category::standard() {
            assert_eq!(Category::from_label(&c.label()), c);
        }
        let custom = Category::Custom("genomics".into());
        assert_eq!(Category::from_label(&custom.label()), custom);
    }

    #[test]
    fn type_tags_are_distinct() {
        let tags: std::collections::HashSet<_> = Category::standard()
            .into_iter()
            .map(|c| c.type_tag())
            .collect();
        assert_eq!(tags.len(), Category::standard().len());
    }

    #[test]
    fn custom_categories_do_not_collide_with_standard_ones() {
        let sneaky = Category::Custom("illness-history".into());
        assert_ne!(sneaky.type_tag(), Category::IllnessHistory.type_tag());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Category::Emergency.to_string(), "emergency");
        assert_eq!(Category::Custom("sleep".into()).to_string(), "custom:sleep");
    }
}
