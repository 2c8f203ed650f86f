//! An executable version of the paper's IND-ID-DR-CPA security game
//! (Section 4.2), used as a test harness.
//!
//! The game cannot, of course, *prove* security — the paper's Theorem 1 does
//! that under the BDH/CDH assumptions in the random-oracle model — but running
//! it mechanically checks three things that are easy to get wrong in an
//! implementation:
//!
//! 1. the challenger enforces the query constraints of the model (no
//!    `Extract1(id*)`, no `Extract2(id')` once `Pextract(id*, id', t*)` was
//!    issued, …),
//! 2. an adversary restricted to the allowed oracles and blind guessing wins
//!    with probability ≈ ½ (no obvious leakage through the public values), and
//! 3. an adversary that *does* hold the target private key (simulating a full
//!    break) wins every time — i.e. the game actually measures something.

use rand::{CryptoRng, RngCore};
use std::collections::HashSet;
use std::sync::Arc;
use tibpre_core::proxy::re_encrypt;
use tibpre_core::{
    Delegator, PreError, ReEncryptedCiphertext, ReEncryptionKey, TypeTag, TypedCiphertext,
};
use tibpre_ibe::{IbePrivateKey, IbePublicParams, Identity, Kgc};
use tibpre_pairing::{Gt, PairingParams};

/// Why the challenger refused a query or a game could not be played.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// A query the model forbids (e.g. extracting the challenge identity).
    ConstraintViolated(&'static str),
    /// The scheme itself failed underneath an oracle.
    Scheme(PreError),
}

impl From<PreError> for GameError {
    fn from(e: PreError) -> Self {
        GameError::Scheme(e)
    }
}

/// Result alias of the game's oracles.
pub type Result<T> = core::result::Result<T, GameError>;

/// The challenger of the IND-ID-DR-CPA game.
///
/// It owns both KGCs, answers oracle queries, tracks which queries were made
/// and refuses combinations the model forbids.
pub struct Challenger {
    params: Arc<PairingParams>,
    kgc1: Kgc,
    kgc2: Kgc,
    extracted1: HashSet<Vec<u8>>,
    extracted2: HashSet<Vec<u8>>,
    /// `(id, id', t)` triples given to the Pextract oracle.
    pextracted: HashSet<(Vec<u8>, Vec<u8>, Vec<u8>)>,
    /// `(id, id', t)` triples used in Preenc† queries.
    preenc_queried: HashSet<(Vec<u8>, Vec<u8>, Vec<u8>)>,
    challenge: Option<ChallengeState>,
}

struct ChallengeState {
    bit: bool,
    identity: Identity,
    type_tag: TypeTag,
}

impl Challenger {
    /// Game setup: generates both domains over shared parameters.
    pub fn new<R: RngCore + CryptoRng>(params: Arc<PairingParams>, rng: &mut R) -> Self {
        let kgc1 = Kgc::setup(params.clone(), "game-kgc1", rng);
        let kgc2 = Kgc::setup(params.clone(), "game-kgc2", rng);
        Challenger {
            params,
            kgc1,
            kgc2,
            extracted1: HashSet::new(),
            extracted2: HashSet::new(),
            pextracted: HashSet::new(),
            preenc_queried: HashSet::new(),
            challenge: None,
        }
    }

    /// The shared pairing parameters (public input to the adversary).
    pub fn params(&self) -> &Arc<PairingParams> {
        &self.params
    }

    /// The delegator-domain public parameters (`params1`).
    pub fn public_params1(&self) -> &IbePublicParams {
        self.kgc1.public_params()
    }

    /// The delegatee-domain public parameters (`params2`).
    pub fn public_params2(&self) -> &IbePublicParams {
        self.kgc2.public_params()
    }

    /// `Extract1` oracle.
    pub fn extract1(&mut self, id: &Identity) -> Result<IbePrivateKey> {
        if let Some(ch) = &self.challenge {
            if ch.identity == *id {
                return Err(GameError::ConstraintViolated(
                    "Extract1 on the challenge identity",
                ));
            }
        }
        self.extracted1.insert(id.as_bytes().to_vec());
        Ok(self.kgc1.extract(id))
    }

    /// `Extract2` oracle.
    pub fn extract2(&mut self, id: &Identity) -> Result<IbePrivateKey> {
        // Constraint (b): if (id*, id', t*) was Pextract-ed, id' may not be extracted.
        if let Some(ch) = &self.challenge {
            if self.pextracted.contains(&(
                ch.identity.as_bytes().to_vec(),
                id.as_bytes().to_vec(),
                ch.type_tag.as_bytes().to_vec(),
            )) {
                return Err(GameError::ConstraintViolated(
                    "Extract2 on a delegatee that received the challenge delegation",
                ));
            }
        }
        self.extracted2.insert(id.as_bytes().to_vec());
        Ok(self.kgc2.extract(id))
    }

    /// `Pextract` oracle: returns `rk_{id→id'}` for the given type.
    pub fn pextract(
        &mut self,
        delegator_id: &Identity,
        delegatee_id: &Identity,
        type_tag: &TypeTag,
    ) -> Result<ReEncryptionKey> {
        let triple = (
            delegator_id.as_bytes().to_vec(),
            delegatee_id.as_bytes().to_vec(),
            type_tag.as_bytes().to_vec(),
        );
        // Constraint (b), seen from the other side.
        if let Some(ch) = &self.challenge {
            if ch.identity == *delegator_id
                && ch.type_tag == *type_tag
                && self.extracted2.contains(delegatee_id.as_bytes())
            {
                return Err(GameError::ConstraintViolated(
                    "Pextract of the challenge (identity, type) towards an extracted delegatee",
                ));
            }
        }
        // Constraint (c): a triple used in a Preenc† query may not be Pextract-ed.
        if self.preenc_queried.contains(&triple) {
            return Err(GameError::ConstraintViolated(
                "Pextract on a triple already used in a Preenc query",
            ));
        }
        self.pextracted.insert(triple);
        let delegator = Delegator::new(
            self.kgc1.public_params().clone(),
            self.kgc1.extract(delegator_id),
        );
        // The challenger uses fresh internal randomness for the oracle answer.
        let mut rng = rand::rngs::OsRng;
        Ok(delegator.make_reencryption_key(
            delegatee_id,
            self.kgc2.public_params(),
            type_tag,
            &mut rng,
        )?)
    }

    /// `Preenc†` oracle: encrypts `m` under `(t, id)` and immediately
    /// re-encrypts it towards `id'`, reflecting a curious delegatee's view.
    pub fn preenc(
        &mut self,
        message: &Gt,
        type_tag: &TypeTag,
        delegator_id: &Identity,
        delegatee_id: &Identity,
    ) -> Result<ReEncryptedCiphertext> {
        let triple = (
            delegator_id.as_bytes().to_vec(),
            delegatee_id.as_bytes().to_vec(),
            type_tag.as_bytes().to_vec(),
        );
        if self.pextracted.contains(&triple) {
            return Err(GameError::ConstraintViolated(
                "Preenc on a triple whose re-encryption key was already given out",
            ));
        }
        self.preenc_queried.insert(triple);
        let delegator = Delegator::new(
            self.kgc1.public_params().clone(),
            self.kgc1.extract(delegator_id),
        );
        let mut rng = rand::rngs::OsRng;
        let ciphertext = delegator.encrypt_typed(message, type_tag, &mut rng);
        let rekey = delegator.make_reencryption_key(
            delegatee_id,
            self.kgc2.public_params(),
            type_tag,
            &mut rng,
        )?;
        Ok(re_encrypt(&ciphertext, &rekey)?)
    }

    /// Challenge phase: the adversary submits `(m0, m1, t*, id*)` and receives
    /// `Encrypt1(m_b, t*, id*)` for a secret random bit `b`.
    pub fn challenge<R: RngCore + CryptoRng>(
        &mut self,
        m0: &Gt,
        m1: &Gt,
        type_tag: &TypeTag,
        identity: &Identity,
        rng: &mut R,
    ) -> Result<TypedCiphertext> {
        if self.challenge.is_some() {
            return Err(GameError::ConstraintViolated("challenge requested twice"));
        }
        if self.extracted1.contains(identity.as_bytes()) {
            return Err(GameError::ConstraintViolated(
                "challenge identity was already extracted",
            ));
        }
        // Constraint (b) at challenge time: for every Pextract(id*, id', t*),
        // id' must not have been extracted in domain 2.
        for (del, dee, t) in &self.pextracted {
            if del == identity.as_bytes()
                && t == type_tag.as_bytes()
                && self.extracted2.contains(dee)
            {
                return Err(GameError::ConstraintViolated(
                    "challenge (identity, type) was delegated to an extracted delegatee",
                ));
            }
        }
        let bit = (rng.next_u32() & 1) == 1;
        let delegator = Delegator::new(
            self.kgc1.public_params().clone(),
            self.kgc1.extract(identity),
        );
        let chosen = if bit { m1 } else { m0 };
        let ciphertext = delegator.encrypt_typed(chosen, type_tag, rng);
        self.challenge = Some(ChallengeState {
            bit,
            identity: identity.clone(),
            type_tag: type_tag.clone(),
        });
        Ok(ciphertext)
    }

    /// Game ending: checks the adversary's guess against the hidden bit.
    pub fn adjudicate(&self, guess: bool) -> Result<bool> {
        match &self.challenge {
            Some(state) => Ok(state.bit == guess),
            None => Err(GameError::ConstraintViolated(
                "guess submitted before the challenge phase",
            )),
        }
    }

    /// **Test-only backdoor**: hands out the challenge delegator's private key
    /// regardless of the constraints.  Used to verify that the game harness
    /// detects a "broken" scheme (an adversary with the key must win always).
    pub fn leak_challenge_private_key(&self, identity: &Identity) -> IbePrivateKey {
        self.kgc1.extract(identity)
    }
}

/// An adversary strategy for the IND-ID-DR-CPA game.
pub trait Adversary {
    /// Plays one full game against the challenger and returns its guess.
    fn play<R: RngCore + CryptoRng>(
        &mut self,
        challenger: &mut Challenger,
        rng: &mut R,
    ) -> Result<bool>;
}

/// Runs `iterations` independent games and returns the fraction the adversary won.
pub fn win_rate<A, R>(
    make_adversary: impl Fn() -> A,
    params: &Arc<PairingParams>,
    iterations: usize,
    rng: &mut R,
) -> f64
where
    A: Adversary,
    R: RngCore + CryptoRng,
{
    let mut wins = 0usize;
    for _ in 0..iterations {
        let mut challenger = Challenger::new(Arc::clone(params), rng);
        let mut adversary = make_adversary();
        let guess = adversary
            .play(&mut challenger, rng)
            .expect("adversary must respect the game interface");
        if challenger.adjudicate(guess).expect("challenge was issued") {
            wins += 1;
        }
    }
    wins as f64 / iterations as f64
}

/// A blind adversary: asks for a challenge and guesses at random.
pub struct BlindAdversary;

impl Adversary for BlindAdversary {
    fn play<R: RngCore + CryptoRng>(
        &mut self,
        challenger: &mut Challenger,
        rng: &mut R,
    ) -> Result<bool> {
        let params = Arc::clone(challenger.params());
        let m0 = params.random_gt(rng);
        let m1 = params.random_gt(rng);
        let _ = challenger.challenge(
            &m0,
            &m1,
            &TypeTag::new("challenge-type"),
            &Identity::new("target@example.org"),
            rng,
        )?;
        Ok(rng.next_u32() & 1 == 1)
    }
}

/// An adversary that (through the test-only backdoor) holds the target's
/// private key and therefore distinguishes perfectly.
pub struct KeyHoldingAdversary;

impl Adversary for KeyHoldingAdversary {
    fn play<R: RngCore + CryptoRng>(
        &mut self,
        challenger: &mut Challenger,
        rng: &mut R,
    ) -> Result<bool> {
        let params = Arc::clone(challenger.params());
        let id = Identity::new("target@example.org");
        let t = TypeTag::new("challenge-type");
        let m0 = params.random_gt(rng);
        let m1 = params.random_gt(rng);
        let ciphertext = challenger.challenge(&m0, &m1, &t, &id, rng)?;
        // Simulate a complete break: obtain the private key out of band.
        let sk = challenger.leak_challenge_private_key(&id);
        let delegator = Delegator::new(challenger.public_params1().clone(), sk);
        let recovered = delegator.decrypt_typed(&ciphertext)?;
        Ok(recovered == m1)
    }
}

/// An adversary that uses the allowed oracles on *other* identities and types
/// (everything it is entitled to) before guessing blindly — exercising the
/// bookkeeping paths of the challenger.
pub struct OracleUsingAdversary;

impl Adversary for OracleUsingAdversary {
    fn play<R: RngCore + CryptoRng>(
        &mut self,
        challenger: &mut Challenger,
        rng: &mut R,
    ) -> Result<bool> {
        let params = Arc::clone(challenger.params());
        let other = Identity::new("someone-else@example.org");
        let helper = Identity::new("helper@clinic.example");
        let target = Identity::new("target@example.org");
        let t_other = TypeTag::new("other-type");
        let t_star = TypeTag::new("challenge-type");

        // Allowed: extract other identities in both domains.
        let _ = challenger.extract1(&other)?;
        let _ = challenger.extract2(&helper)?;
        // Allowed: delegation of a *different* type of the target identity.
        let _ = challenger.pextract(&target, &helper, &t_other)?;
        // Allowed: a Preenc query for the challenge type towards a delegatee
        // whose key was never extracted and never Pextract-ed for t*.
        let m = params.random_gt(rng);
        let fresh_delegatee = Identity::new("fresh@clinic.example");
        let _ = challenger.preenc(&m, &t_star, &target, &fresh_delegatee)?;

        let m0 = params.random_gt(rng);
        let m1 = params.random_gt(rng);
        let _ = challenger.challenge(&m0, &m1, &t_star, &target, rng)?;
        Ok(rng.next_u32() & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> Arc<PairingParams> {
        PairingParams::insecure_toy()
    }

    #[test]
    fn blind_adversary_wins_about_half_the_time() {
        let mut rng = StdRng::seed_from_u64(121);
        let rate = win_rate(|| BlindAdversary, &params(), 60, &mut rng);
        assert!(rate > 0.25 && rate < 0.75, "win rate {rate}");
    }

    #[test]
    fn key_holding_adversary_always_wins() {
        let mut rng = StdRng::seed_from_u64(122);
        let rate = win_rate(|| KeyHoldingAdversary, &params(), 10, &mut rng);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn oracle_using_adversary_gains_nothing() {
        let mut rng = StdRng::seed_from_u64(123);
        let rate = win_rate(|| OracleUsingAdversary, &params(), 40, &mut rng);
        assert!(rate > 0.2 && rate < 0.8, "win rate {rate}");
    }

    #[test]
    fn challenger_enforces_extract_constraints() {
        let mut rng = StdRng::seed_from_u64(124);
        let p = params();
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        let target = Identity::new("target");
        let t = TypeTag::new("t*");
        let m0 = p.random_gt(&mut rng);
        let m1 = p.random_gt(&mut rng);

        // Extracting first, then challenging the same identity: refused.
        challenger.extract1(&target).unwrap();
        assert!(matches!(
            challenger.challenge(&m0, &m1, &t, &target, &mut rng),
            Err(GameError::ConstraintViolated(_))
        ));

        // Fresh game: challenge first, then Extract1 on the challenge identity: refused.
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        challenger
            .challenge(&m0, &m1, &t, &target, &mut rng)
            .unwrap();
        assert!(matches!(
            challenger.extract1(&target),
            Err(GameError::ConstraintViolated(_))
        ));
        // A second challenge is refused too.
        assert!(matches!(
            challenger.challenge(&m0, &m1, &t, &target, &mut rng),
            Err(GameError::ConstraintViolated(_))
        ));
    }

    #[test]
    fn challenger_enforces_delegation_constraints() {
        let mut rng = StdRng::seed_from_u64(125);
        let p = params();
        let target = Identity::new("target");
        let helper = Identity::new("helper");
        let t_star = TypeTag::new("t*");
        let m0 = p.random_gt(&mut rng);
        let m1 = p.random_gt(&mut rng);

        // Pextract(id*, id', t*) then Extract2(id'): refused after the challenge.
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        challenger.pextract(&target, &helper, &t_star).unwrap();
        challenger
            .challenge(&m0, &m1, &t_star, &target, &mut rng)
            .unwrap();
        assert!(matches!(
            challenger.extract2(&helper),
            Err(GameError::ConstraintViolated(_))
        ));

        // Extract2(id') then Pextract(id*, id', t*) after the challenge: refused.
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        challenger.extract2(&helper).unwrap();
        challenger
            .challenge(&m0, &m1, &t_star, &target, &mut rng)
            .unwrap();
        assert!(matches!(
            challenger.pextract(&target, &helper, &t_star),
            Err(GameError::ConstraintViolated(_))
        ));
        // ... and at challenge time, the combination is also caught.
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        challenger.extract2(&helper).unwrap();
        challenger.pextract(&target, &helper, &t_star).unwrap();
        assert!(matches!(
            challenger.challenge(&m0, &m1, &t_star, &target, &mut rng),
            Err(GameError::ConstraintViolated(_))
        ));
    }

    #[test]
    fn challenger_enforces_preenc_pextract_exclusion() {
        let mut rng = StdRng::seed_from_u64(126);
        let p = params();
        let mut challenger = Challenger::new(p.clone(), &mut rng);
        let target = Identity::new("target");
        let helper = Identity::new("helper");
        let t = TypeTag::new("t");
        let m = p.random_gt(&mut rng);

        challenger.preenc(&m, &t, &target, &helper).unwrap();
        assert!(matches!(
            challenger.pextract(&target, &helper, &t),
            Err(GameError::ConstraintViolated(_))
        ));

        let mut challenger = Challenger::new(p, &mut rng);
        challenger.pextract(&target, &helper, &t).unwrap();
        assert!(matches!(
            challenger.preenc(&m, &t, &target, &helper),
            Err(GameError::ConstraintViolated(_))
        ));
    }

    #[test]
    fn guess_before_challenge_is_rejected() {
        let mut rng = StdRng::seed_from_u64(127);
        let challenger = Challenger::new(params(), &mut rng);
        assert!(matches!(
            challenger.adjudicate(true),
            Err(GameError::ConstraintViolated(_))
        ));
    }
}
