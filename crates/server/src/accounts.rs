//! Subscription, authentication and pricing primitives (§5, §6.2.1).
//!
//! "If the user is not a member of the service, the application prompts the
//! user to fill in a subscription form. This form contains personal data
//! such as name and address, telephone, e-mail, etc. By transmitting the
//! form to the service's server, the user accepts the pricing policy ...
//! a database entry of authorized users is updated while the pricing
//! mechanism is initialized."

use hermes_core::{DocumentId, MediaDuration, MediaTime, PricingClass, UserId};
use std::collections::BTreeMap;

/// The subscription form of §5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionForm {
    /// Real name.
    pub name: String,
    /// Postal address.
    pub address: String,
    /// Telephone number.
    pub telephone: String,
    /// E-mail address (also the key for tutor interaction).
    pub email: String,
    /// The pricing contract the user accepts.
    pub class: PricingClass,
}

/// One entry of the "coherent, centralized database of authorized users".
#[derive(Debug, Clone, PartialEq)]
pub struct UserRecord {
    /// The user's id.
    pub id: UserId,
    /// The subscription form on file.
    pub form: SubscriptionForm,
    /// "specific information about the exact time logged into the service"
    /// — login timestamps.
    pub logins: Vec<MediaTime>,
    /// "as well as the lessons that are retrieved" — retrieval history.
    pub retrieved: Vec<DocumentId>,
}

/// A pricing event on a user's ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Charge {
    /// Session connect fee.
    Connection,
    /// Per-document retrieval fee.
    Retrieval(DocumentId),
    /// Connection-time charge.
    Duration(MediaDuration),
    /// Data-volume charge (bytes delivered).
    Volume(u64),
}

impl Charge {
    /// Price in milli-credits under a pricing class.
    pub fn amount_millis(&self, class: PricingClass) -> u64 {
        // Premium pays a higher rate for priority; economy is cheapest.
        let rate = match class {
            PricingClass::Economy => 10,
            PricingClass::Standard => 15,
            PricingClass::Premium => 25,
        };
        match self {
            Charge::Connection => 100 * rate,
            Charge::Retrieval(_) => 50 * rate,
            Charge::Duration(d) => (d.as_millis().max(0) as u64 / 1_000) * rate,
            Charge::Volume(bytes) => (bytes / 100_000) * rate,
        }
    }
}

/// The user database plus pricing ledger of the service.
#[derive(Debug, Default)]
pub struct AccountsDb {
    users: BTreeMap<UserId, UserRecord>,
    next_user: u64,
    ledger: BTreeMap<UserId, u64>,
}

impl AccountsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the user an authorized subscriber?
    pub fn is_authorized(&self, user: UserId) -> bool {
        self.users.contains_key(&user)
    }

    /// Process a subscription form: creates the user entry and initializes
    /// the pricing mechanism. Returns the new user id.
    pub fn subscribe(&mut self, form: SubscriptionForm) -> UserId {
        let id = UserId::new(self.next_user);
        self.next_user += 1;
        self.users.insert(
            id,
            UserRecord {
                id,
                form,
                logins: Vec::new(),
                retrieved: Vec::new(),
            },
        );
        self.ledger.insert(id, 0);
        id
    }

    /// Register a subscription replicated from another server under its
    /// existing id ("this form is transmitted to every server of the
    /// service", §5). Keeps the id allocator ahead of replicated ids.
    pub fn register_replica(&mut self, id: UserId, form: SubscriptionForm) {
        self.next_user = self.next_user.max(id.raw() + 1);
        self.users.entry(id).or_insert_with(|| UserRecord {
            id,
            form,
            logins: Vec::new(),
            retrieved: Vec::new(),
        });
        self.ledger.entry(id).or_insert(0);
    }

    /// Record a login ("whenever a user is connected ... the exact time
    /// logged into the service ... \[is\] captured").
    pub fn record_login(&mut self, user: UserId, at: MediaTime) -> bool {
        match self.users.get_mut(&user) {
            Some(u) => {
                u.logins.push(at);
                true
            }
            None => false,
        }
    }

    /// Record a document retrieval.
    pub fn record_retrieval(&mut self, user: UserId, doc: DocumentId) -> bool {
        match self.users.get_mut(&user) {
            Some(u) => {
                u.retrieved.push(doc);
                true
            }
            None => false,
        }
    }

    /// Apply a charge to the user's ledger; returns the amount charged in
    /// milli-credits (None for unknown users).
    pub fn charge(&mut self, user: UserId, charge: Charge) -> Option<u64> {
        let class = self.users.get(&user)?.form.class;
        let amount = charge.amount_millis(class);
        *self.ledger.get_mut(&user)? += amount;
        Some(amount)
    }

    /// Total accrued charges for a user, milli-credits.
    pub fn balance(&self, user: UserId) -> Option<u64> {
        self.ledger.get(&user).copied()
    }

    /// The user's record.
    pub fn user(&self, user: UserId) -> Option<&UserRecord> {
        self.users.get(&user)
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.users.len()
    }
    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(class: PricingClass) -> SubscriptionForm {
        SubscriptionForm {
            name: "Ada Lovelace".into(),
            address: "12 St James Sq".into(),
            telephone: "+44 20 0000".into(),
            email: "ada@example.org".into(),
            class,
        }
    }

    #[test]
    fn subscribe_then_authorized() {
        let mut db = AccountsDb::new();
        assert!(db.is_empty());
        let u = db.subscribe(form(PricingClass::Standard));
        assert!(db.is_authorized(u));
        assert!(!db.is_authorized(UserId::new(99)));
        assert_eq!(db.balance(u), Some(0));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn login_and_retrieval_history() {
        let mut db = AccountsDb::new();
        let u = db.subscribe(form(PricingClass::Economy));
        assert!(db.record_login(u, MediaTime::from_secs(100)));
        assert!(db.record_retrieval(u, DocumentId::new(5)));
        assert!(db.record_retrieval(u, DocumentId::new(6)));
        let rec = db.user(u).unwrap();
        assert_eq!(rec.logins, vec![MediaTime::from_secs(100)]);
        assert_eq!(rec.retrieved, vec![DocumentId::new(5), DocumentId::new(6)]);
        // Unknown users are rejected.
        assert!(!db.record_login(UserId::new(42), MediaTime::ZERO));
    }

    #[test]
    fn replica_registration_preserves_id() {
        let mut a = AccountsDb::new();
        let mut b = AccountsDb::new();
        let u = a.subscribe(form(PricingClass::Standard));
        b.register_replica(u, a.user(u).unwrap().form.clone());
        assert!(b.is_authorized(u));
        // The replica's allocator skips past the replicated id.
        let next = b.subscribe(form(PricingClass::Economy));
        assert!(next.raw() > u.raw());
        // Idempotent.
        b.register_replica(u, a.user(u).unwrap().form.clone());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn charges_accumulate_by_class() {
        let mut db = AccountsDb::new();
        let eco = db.subscribe(form(PricingClass::Economy));
        let prm = db.subscribe(form(PricingClass::Premium));
        db.charge(eco, Charge::Connection);
        db.charge(prm, Charge::Connection);
        assert_eq!(db.balance(eco), Some(1_000));
        assert_eq!(db.balance(prm), Some(2_500));
        db.charge(eco, Charge::Duration(MediaDuration::from_secs(120)));
        assert_eq!(db.balance(eco), Some(1_000 + 1_200));
        db.charge(eco, Charge::Volume(1_000_000));
        assert_eq!(db.balance(eco), Some(1_000 + 1_200 + 100));
        assert_eq!(db.charge(UserId::new(77), Charge::Connection), None);
    }

    #[test]
    fn retrieval_charge_scales_with_class() {
        assert_eq!(
            Charge::Retrieval(DocumentId::new(1)).amount_millis(PricingClass::Standard),
            750
        );
        assert!(
            Charge::Retrieval(DocumentId::new(1)).amount_millis(PricingClass::Premium)
                > Charge::Retrieval(DocumentId::new(1)).amount_millis(PricingClass::Economy)
        );
    }
}
