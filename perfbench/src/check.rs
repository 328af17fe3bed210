//! Output checks that do not trust the engine's join code: result
//! counts recomputed by walking the extents through public objstore
//! calls. Run outside every timed window.

use tq_objstore::{SetValue, Value};
use tq_workload::{patient_attr, provider_attr, Database};

fn int_attr(values: &[Value], attr: usize) -> i64 {
    match values[attr] {
        Value::Int(v) => i64::from(v),
        ref other => panic!("attribute {attr} is {other:?}, not an integer"),
    }
}

/// For each `(patient %, provider %)` pair, the number of
/// `(provider, patient)` pairs with `patient ∈ provider.clients`,
/// `patient.mrn < K_pat` and `provider.upin < K_prov` — the §5 join's
/// answer, counted by one scan of Providers and their client sets on a
/// private clone of `db`.
pub fn join_counts(db: &Database, pairs: &[(u32, u32)]) -> Vec<u64> {
    let keys: Vec<(i64, i64)> = pairs
        .iter()
        .map(|&(pat, prov)| {
            (
                db.patient_selectivity_key(pat),
                db.provider_selectivity_key(prov),
            )
        })
        .collect();
    let mut counts = vec![0u64; pairs.len()];
    let mut db = db.clone();
    let store = &mut db.store;
    let mut providers = store.collection_cursor("Providers");
    while let Some(rid) = providers.next(store.stack_mut()) {
        let parent = store.fetch(rid);
        let deleted = parent.object.header.is_deleted();
        let upin = int_attr(&parent.object.values, provider_attr::UPIN);
        let clients: SetValue = match &parent.object.values[provider_attr::CLIENTS] {
            Value::Set(s) => s.clone(),
            other => panic!("Provider.clients is {other:?}, not a set"),
        };
        store.release(parent);
        if deleted || !keys.iter().any(|&(_, kp)| upin < kp) {
            continue;
        }
        let mut members = store.set_cursor(&clients);
        while let Some(child) = members.next(store.stack_mut()) {
            let patient = store.fetch(child);
            let live = !patient.object.header.is_deleted();
            let mrn = int_attr(&patient.object.values, patient_attr::MRN);
            store.release(patient);
            for (count, &(kc, kp)) in counts.iter_mut().zip(&keys) {
                if live && upin < kp && mrn < kc {
                    *count += 1;
                }
            }
        }
    }
    store.end_of_query();
    assert_eq!(store.live_handles(), 0, "the check scan leaked handles");
    counts
}
