//! The standard component library (29 components: 10 NIC, 10 DIC, 9 CIC).

use sepe_isa::Opcode;

use crate::component::{Component, ComponentClass, ComponentKind};

/// A library of synthesis components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Library {
    components: Vec<Component>,
}

impl Library {
    /// Creates a library from explicit components.
    pub fn new(components: Vec<Component>) -> Self {
        Library { components }
    }

    /// The standard 29-component library of the paper's evaluation:
    /// 10 native (R-type) components, 10 derived (immediate-as-attribute)
    /// components and 9 composite components.
    pub fn standard() -> Self {
        use ComponentClass::*;
        use ComponentKind::*;
        let mut components = Vec::new();
        // 10 NICs: the R-type ALU instructions.
        for op in [
            Opcode::Add,
            Opcode::Sub,
            Opcode::Sll,
            Opcode::Slt,
            Opcode::Sltu,
            Opcode::Xor,
            Opcode::Srl,
            Opcode::Sra,
            Opcode::Or,
            Opcode::And,
        ] {
            components.push(Component::new(Nic, Native(op)));
        }
        // 10 DICs: immediate-form instructions with the immediate as an
        // internal attribute.
        for op in [
            Opcode::Addi,
            Opcode::Slti,
            Opcode::Sltiu,
            Opcode::Xori,
            Opcode::Ori,
            Opcode::Andi,
            Opcode::Slli,
            Opcode::Srli,
            Opcode::Srai,
            Opcode::Lui,
        ] {
            components.push(Component::new(Dic, Derived(op)));
        }
        // 9 CICs.
        for kind in [
            MulByConst(Opcode::Mul),
            MulByConst(Opcode::Mulh),
            MulByConst(Opcode::Mulhu),
            MulByConst(Opcode::Mulhsu),
            ShiftLeftAdd,
            Negate,
            LoadImmediate,
            AndNot,
            SignBit,
        ] {
            components.push(Component::new(Cic, kind));
        }
        Library { components }
    }

    /// A reduced library for fast unit tests (a handful of NIC/DIC/CIC
    /// components sufficient for the classic identities).
    pub fn minimal() -> Self {
        use ComponentClass::*;
        use ComponentKind::*;
        Library {
            components: vec![
                Component::new(Nic, Native(Opcode::Add)),
                Component::new(Nic, Native(Opcode::Sub)),
                Component::new(Nic, Native(Opcode::Xor)),
                Component::new(Nic, Native(Opcode::Or)),
                Component::new(Nic, Native(Opcode::And)),
                Component::new(Dic, Derived(Opcode::Xori)),
                Component::new(Dic, Derived(Opcode::Addi)),
                Component::new(Cic, Negate),
                Component::new(Cic, AndNot),
            ],
        }
    }

    /// The components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Looks up a component by name.
    pub fn find(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Number of components of a given class.
    pub fn count_class(&self, class: ComponentClass) -> usize {
        self.components.iter().filter(|c| c.class == class).count()
    }

    /// All multisets (combinations with replacement) of `size` component
    /// indices — the enumeration primitive of both the iterative CEGIS and
    /// HPF-CEGIS drivers.
    pub fn multisets(&self, size: usize) -> Vec<Vec<usize>> {
        let count = multiset_count(self.components.len(), size);
        let mut out = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        self.for_each_multiset(size, |multiset| out.push(multiset.to_vec()));
        out
    }

    /// Calls `f` on every multiset of `size` component indices, in the
    /// order of [`multisets`](Self::multisets), without collecting them.
    pub(crate) fn for_each_multiset(&self, size: usize, mut f: impl FnMut(&[usize])) {
        let mut current = Vec::with_capacity(size);
        combinations_with_replacement(self.components.len(), size, 0, &mut current, &mut f);
    }
}

fn combinations_with_replacement<F: FnMut(&[usize])>(
    n: usize,
    size: usize,
    start: usize,
    current: &mut Vec<usize>,
    f: &mut F,
) {
    if current.len() == size {
        f(current);
        return;
    }
    for i in start..n {
        current.push(i);
        combinations_with_replacement(n, size, i, current, f);
        current.pop();
    }
}

/// The binomial-style count of multisets of size `k` from `n` items
/// (`C(n + k - 1, k)`), used in reports to match the paper's discussion of
/// the iterative CEGIS search-space blow-up.
pub fn multiset_count(n: usize, k: usize) -> u128 {
    if n == 0 {
        // Only the empty multiset can be drawn from no items.
        return u128::from(k == 0);
    }
    // C(n + k - 1, k)
    let top = (n + k - 1) as u128;
    let mut num = 1u128;
    let mut den = 1u128;
    for i in 0..k as u128 {
        num *= top - i;
        den *= i + 1;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_matches_the_paper_counts() {
        let lib = Library::standard();
        assert_eq!(lib.len(), 29);
        assert_eq!(lib.count_class(ComponentClass::Nic), 10);
        assert_eq!(lib.count_class(ComponentClass::Dic), 10);
        assert_eq!(lib.count_class(ComponentClass::Cic), 9);
        // names must be unique
        let mut names: Vec<&str> = lib.components().iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29);
        assert!(lib.find("ADD").is_some());
        assert!(lib.find("MULH_CONST").is_some());
        assert!(lib.find("NOPE").is_none());
    }

    #[test]
    fn multiset_enumeration_matches_the_formula() {
        let lib = Library::minimal();
        let n = lib.len();
        for k in 1..=3 {
            let sets = lib.multisets(k);
            assert_eq!(sets.len() as u128, multiset_count(n, k));
            // each multiset is sorted (non-decreasing indices) and unique
            let mut seen = std::collections::HashSet::new();
            for s in &sets {
                assert!(s.windows(2).all(|w| w[0] <= w[1]));
                assert!(seen.insert(s.clone()));
            }
        }
    }

    #[test]
    fn empty_library_has_only_the_empty_multiset() {
        let lib = Library::new(Vec::new());
        assert_eq!(multiset_count(0, 0), 1);
        assert_eq!(multiset_count(0, 2), 0);
        assert_eq!(lib.multisets(0), vec![Vec::<usize>::new()]);
        assert!(lib.multisets(2).is_empty());
    }

    #[test]
    fn paper_example_multiset_count() {
        // the paper: 29 components, multisets of 6 -> 1,344,904
        assert_eq!(multiset_count(29, 6), 1_344_904);
    }
}
