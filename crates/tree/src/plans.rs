//! A tree's plan registry: what callers derive from one tree and share —
//! orders, transforms, activation-order layouts (DESIGN.md §6.11).
//!
//! Entries are type-erased and held **weakly**: an entry lives exactly as
//! long as some caller holds it, so a tree keeps no memory its callers
//! have dropped. The registry is not part of the tree's value: a clone,
//! `map_specs`, a renumbering or a deserialised tree starts empty, and
//! equality and `Debug` never look inside it.

use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

type Entry = Weak<dyn Any + Send + Sync>;

/// The registry slot of a [`TaskTree`](crate::TaskTree).
#[derive(Default)]
pub struct Plans(Mutex<Vec<Entry>>);

impl Plans {
    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        // Plain weak pointers: a panic elsewhere cannot leave them torn.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A live entry of type `T` that `is` accepts.
    pub fn find<T: Any + Send + Sync>(&self, is: impl Fn(&T) -> bool) -> Option<Arc<T>> {
        scan(&self.entries(), &is)
    }

    /// [`find`](Plans::find), or else `make()`'s value, registered.
    /// `make` runs outside the lock; when two callers race, the first
    /// insert wins and both get it.
    ///
    /// # Errors
    /// `make`'s, which registers nothing.
    pub fn get_or_try_insert_with<T: Any + Send + Sync, E>(
        &self,
        is: impl Fn(&T) -> bool,
        make: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(hit) = self.find(&is) {
            return Ok(hit);
        }
        let fresh = Arc::new(make()?);
        let mut entries = self.entries();
        if let Some(hit) = scan(&entries, &is) {
            return Ok(hit);
        }
        entries.retain(|e| e.strong_count() > 0);
        entries.push(Arc::downgrade(&fresh) as Entry);
        Ok(fresh)
    }
}

fn scan<T: Any + Send + Sync>(entries: &[Entry], is: &impl Fn(&T) -> bool) -> Option<Arc<T>> {
    entries
        .iter()
        .filter_map(|e| e.upgrade()?.downcast::<T>().ok())
        .find(|t| is(t))
}

/// A copy starts empty: its entries were derived from another tree.
impl Clone for Plans {
    fn clone(&self) -> Self {
        Plans::default()
    }
}

impl PartialEq for Plans {
    fn eq(&self, _: &Plans) -> bool {
        true
    }
}

impl std::fmt::Debug for Plans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Plans")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_live_as_long_as_a_caller_holds_them() {
        let plans = Plans::default();
        let insert = |make: fn() -> Result<String, ()>| {
            plans.get_or_try_insert_with(|s: &String| s == "a", make)
        };
        assert_eq!(
            insert(|| Err(())),
            Err(()),
            "a failed make registers nothing"
        );
        let a = insert(|| Ok("a".into())).unwrap();
        let again = insert(|| unreachable!()).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        assert!(plans.find(|_: &u32| true).is_none(), "entries are typed");
        let dead = Arc::downgrade(&a);
        drop((a, again));
        assert!(plans.find(|s: &String| s == "a").is_none());
        // The dead entry still pins its address, so the fresh value is new.
        let b = insert(|| Ok("a".into())).unwrap();
        assert!(!std::ptr::addr_eq(Arc::as_ptr(&b), dead.as_ptr()));
        assert!(plans.clone().find(|_: &String| true).is_none());
    }
}
