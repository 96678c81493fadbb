"""The object-side (IoT device) protocol engine — sans-IO.

Implements the object's half of Figs. 3–5: answer QUE1 broadcasts
(plaintext PROF at Level 1, authenticated RES1 at Level 2/3) and QUE2
unicasts (attribute check, fellow check, variant selection, encrypted
RES2). The engine consumes and produces message objects; it never talks
to a network, so the same code runs under unit tests, the attack
harness, and the discrete-event simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.backend.registration import ObjectCredentials
from repro.crypto import aead, kdf, meter
from repro.crypto.ecdh import EphemeralECDH
from repro.crypto.keypool import ecdh_keypair
from repro.crypto.primitives import (
    MAC_LEN,
    constant_time_equal,
    fresh_nonce,
    random_bytes,
)
from repro.pki.chain import ChainVerifier
from repro.pki.profile import Profile, ProfileError
from repro.protocol.errors import (
    AuthenticationError,
    ErrorLog,
    FreshnessError,
    MessageFormatError,
    RevokedError,
    SessionError,
    VisibilityError,
)
from repro.protocol.messages import Que1, Que2, Res1, Res1Level1, Res2, Rque, Rres
from repro.protocol.resumption import (
    SEALED_TICKET_LEN,
    TICKET_LIFETIME,
    ReplayLedger,
    TicketError,
    TicketKeyring,
    TicketPayload,
    fresh_ticket_id,
)
from repro.protocol.session import EstablishedSession, SessionKeys, Transcript
from repro.protocol.versions import Version

#: Remember this many recent R_S nonces for duplicate detection.
SEEN_NONCE_LIMIT = 1024
#: Concurrent half-open sessions an object will hold.
SESSION_LIMIT = 256
#: Seconds a half-open handshake may sit in the pending table before
#: TTL eviction reclaims it (the half-open exhaustion defense; only
#: enforced where a clock exists — the network layer ticks the engine,
#: the in-memory test path never does).
PENDING_HANDSHAKE_TTL_S = 30.0
#: Finished exchanges whose RES2 is kept for idempotent retransmission.
RES2_CACHE_LIMIT = SESSION_LIMIT
#: Transport peers whose authenticated identity is remembered, and
#: subjects whose finished session is kept; past it the least recently
#: written entry of each map is forgotten.
PEER_IDENTITY_LIMIT = 4096


@dataclass
class _ObjectSession:
    r_s: bytes
    r_o: bytes
    ecdh: EphemeralECDH
    transcript: Transcript = field(default_factory=Transcript)
    #: Engine-clock time the QUE1 opened this session (TTL eviction).
    created_at: float = 0.0


class ObjectEngine(ErrorLog):
    """One object's protocol state machine."""

    def __init__(
        self,
        creds: ObjectCredentials,
        version: Version = Version.V3_0,
        now: int = 1,
        issue_tickets: bool = False,
        ticket_lifetime: int = TICKET_LIFETIME,
        decoy_on_replay: bool = False,
        resend_cached_res2: bool = False,
        pending_ttl_s: float = PENDING_HANDSHAKE_TTL_S,
        session_limit: int = SESSION_LIMIT,
    ) -> None:
        """``issue_tickets`` opts a Level 2/3 object into session
        resumption (repro.protocol.resumption).  Off by default: ticket
        issuance adds real (metered) symmetric work to RES2, and the
        paper-anchored cost figures (Fig. 6(b), §IX-B) describe the
        ticket-free handshake.

        ``decoy_on_replay`` answers a replayed (already-redeemed) RQUE
        with a constant-length decoy RRES instead of silence, keeping
        responder behavior uniform under retransmission/duplication
        faults (MASHaBLE-style); the decoy never authenticates, so the
        subject treats it exactly like a failed resumption and falls
        back to the full handshake.  Off by default — silence is the
        paper-faithful rejection everywhere else.

        ``resend_cached_res2`` answers an *exactly* duplicated QUE2 with
        the byte-identical cached RES2 (idempotent retransmission for
        lossy transports); any differing QUE2 still gets silence.  Off
        by default so the in-memory path keeps the strict replays-are-
        silence contract; the ground network enables it so a lost RES2
        is recoverable by re-sending the same QUE2.

        ``pending_ttl_s`` bounds how long a half-open handshake may wait
        for its QUE2 before the pending table reclaims it.

        ``session_limit`` bounds the half-open session table; the default
        suits a lone device, while throughput-scale deployments (one
        object answering a 1000-subject round) raise it to hold the whole
        round's handshakes concurrently."""
        if creds.admin_public is None:
            raise ValueError("object credentials missing the admin public key")
        super().__init__()
        self.creds = creds
        self.version = version
        self.now = now
        self.verifier = ChainVerifier(creds.root_id, creds.admin_public)
        self._seen_nonces: OrderedDict[bytes, None] = OrderedDict()
        self._sessions: OrderedDict[str, _ObjectSession] = OrderedDict()
        #: Session-resumption state (repro.protocol.resumption): rotating
        #: ticket key, single-use ledger, and the issuance switch.
        self.issue_tickets = issue_tickets and creds.level in (2, 3)
        self.ticket_lifetime = ticket_lifetime
        self.ticket_keyring = TicketKeyring()
        self.replay_ledger = ReplayLedger()
        self.decoy_on_replay = decoy_on_replay
        self.resend_cached_res2 = resend_cached_res2
        self.pending_ttl_s = pending_ttl_s
        self.session_limit = session_limit
        #: Engine clock in seconds, advanced by the transport's tick();
        #: stays 0.0 on the in-memory path (no eviction without time).
        self._clock: float = 0.0
        #: peer id -> (QUE2 bytes, RES2) for idempotent retransmission:
        #: the *identical* QUE2 seen again (a duplicated or retransmitted
        #: frame) gets the byte-identical cached RES2 back — no new
        #: crypto, no oracle; any *different* QUE2 for a finished
        #: session stays silence, consistent with the replay defenses in
        #: repro.protocol.resumption.
        self._res2_replay_cache: OrderedDict[str, tuple[bytes, Res2]] = OrderedDict()
        #: Completed handshakes, keyed by authenticated subject identity,
        #: for the access layer; least recently written first, capped at
        #: ``PEER_IDENTITY_LIMIT``.
        self.established: OrderedDict[str, EstablishedSession] = OrderedDict()
        #: Network peer id -> authenticated subject identity (they differ
        #: when the transport addresses nodes by something other than the
        #: certificate identity, e.g. the simulator's node names).
        #: Least recently written first, capped at ``PEER_IDENTITY_LIMIT``.
        self.peer_identity: OrderedDict[str, str] = OrderedDict()
        #: Hot-path memos; keyed on credential-object identities so a
        #: backend push that swaps a profile/variant list invalidates them.
        self._res1_l1_cache: tuple[int, Res1Level1] | None = None
        self._padded_len_cache: tuple[tuple, int] | None = None

    # -- routing ------------------------------------------------------------------

    def receive(
        self, message: object, peer_id: str
    ) -> Res1 | Res1Level1 | Res2 | Rres | None:
        """Route one parsed flight to its handler; None means silence.

        The one object-side router: the simulator and the live daemon
        both call it, so a misaddressed flight is handled alike on
        either wire.  A subject-bound flight (RES1, RES2, RRES, ...)
        aimed at an object is recorded and never answered.
        """
        if isinstance(message, Que1):
            return self.handle_que1(message, peer_id)
        if isinstance(message, Que2):
            return self.handle_que2(message, peer_id)
        if isinstance(message, Rque):
            return self.handle_rque(message, peer_id)
        self._record(MessageFormatError(
            f"{type(message).__name__} addressed to an object"
        ))
        return None

    # -- phase 1 ------------------------------------------------------------------

    def handle_que1(self, que1: Que1, peer_id: str) -> Res1 | Res1Level1 | None:
        """Answer a broadcast query; None means "stay silent"."""
        if que1.r_s in self._seen_nonces:
            self._record(FreshnessError(f"duplicate QUE1 nonce from {peer_id}"))
            return None
        self._remember_nonce(que1.r_s)

        if self.creds.level == 1:
            return self._res1_level1()

        session = _ObjectSession(
            r_s=que1.r_s,
            r_o=fresh_nonce(),
            ecdh=ecdh_keypair(self.creds.strength),
            created_at=self._clock,
        )
        kexm = session.ecdh.kexm
        signature = self.creds.signing_key.sign(que1.r_s + session.r_o + kexm)
        res1 = Res1(
            r_o=session.r_o,
            cert_chain_bytes=self.creds.cert_chain.to_bytes(),
            kexm=kexm,
            signature=signature,
        )
        session.transcript.append(que1.to_bytes())
        session.transcript.append(res1.to_bytes())
        self._store_session(peer_id, session)
        return res1

    # -- phase 2 ------------------------------------------------------------------

    # lint: indistinguishable
    def handle_que2(self, que2: Que2, peer_id: str) -> Res2 | None:
        """Authenticate the subject and return the visible PROF variant.

        Every failure path returns None (silence): an unauthorized or
        unauthenticated subject must not learn whether this object had
        anything to show her.

        Marked ``# lint: indistinguishable``: once ``matched_group`` is
        known, control flow must not exit early on membership-derived
        branches before the constant-length framing in
        :meth:`_frame_payload` (§VI-B; enforced by INDIST-RETURN).
        """
        # Retransmission check before anything touches live state: an
        # exact byte-replay of an already-answered QUE2 can never be the
        # current handshake's QUE2 (the fresh R_O in the signed
        # transcript makes byte collision impossible), so resending the
        # recorded answer is always safe — and a stale duplicate must
        # not reach the open-session path below, where its failed
        # verification would burn the session a legitimate QUE2 is
        # still in flight for.
        resend = self._cached_res2(peer_id, que2)
        if resend is not None:
            return resend
        # One QUE2 per handshake: the session and its ephemeral key go now.
        session = self._sessions.pop(peer_id, None)
        if session is None:
            self._record(SessionError(f"no open session for {peer_id}"))
            return None

        # 1. Subject certificate chain -> authenticated subject identity.
        leaf = self.verifier.verify_chain_bytes(que2.cert_chain_bytes, self.now)
        if leaf is None:
            self._record(AuthenticationError(f"bad subject chain from {peer_id}"))
            return None
        subject_id = leaf.subject_id
        if subject_id in self.creds.revoked_subjects:
            self._record(RevokedError(f"revoked subject {subject_id}"))
            return None

        # 2. Subject profile: admin-signed and bound to the same identity.
        try:
            profile = Profile.from_bytes(que2.profile_bytes)
        except ProfileError as exc:
            self._record(MessageFormatError(str(exc)))
            return None
        assert self.creds.admin_public is not None
        if not profile.verify(self.creds.admin_public):
            self._record(AuthenticationError(f"bad PROF_S signature from {peer_id}"))
            return None
        if profile.entity_id != subject_id:
            self._record(AuthenticationError(
                f"PROF_S identity {profile.entity_id!r} != CERT identity {subject_id!r}"
            ))
            return None

        # 3. Signature over the whole transcript + QUE2's signed fields.
        signed_bytes = session.transcript.snapshot() + que2.signed_portion()
        if not leaf.public_key.verify(que2.signature, signed_bytes):
            self._record(AuthenticationError(f"bad QUE2 signature from {peer_id}"))
            return None

        # 4. Key schedule: preK -> K2 (-> K3 candidates for our groups).
        try:
            pre_k = session.ecdh.derive_premaster(que2.kexm)
        except ValueError as exc:
            self._record(MessageFormatError(f"bad KEXM_S: {exc}"))
            return None
        group_keys = {gid: key for gid, (key, _) in self.creds.level3_variants.items()}
        keys = SessionKeys.from_premaster(pre_k, session.r_s, session.r_o, group_keys)

        mac_transcript = signed_bytes + que2.signature
        expected_mac2 = keys.subject_mac(keys.k2, mac_transcript)
        if not constant_time_equal(expected_mac2, que2.mac_s2):
            self._record(AuthenticationError(f"bad MAC_S2 from {peer_id}"))
            return None

        # 5. Fellow check (Level 3 objects only; constant-work).
        matched_group: str | None = None
        if self.creds.level == 3 and que2.mac_s3 is not None:
            matched_group = keys.verify_subject_mac3(que2.mac_s3, mac_transcript)

        res2_transcript = mac_transcript + que2.mac_s2 + (que2.mac_s3 or b"")

        # 6. Variant selection: the double-faced role (§VI-B).  Both faces
        # fall through to one exit check so no return sits under a
        # membership-derived branch (INDIST-RETURN).
        payload: Profile | None
        if matched_group is not None:
            _, covert_profile = self.creds.level3_variants[matched_group]
            session_key = keys.k3[matched_group]
            payload = covert_profile
        else:
            session_key = keys.k2
            payload = self._match_level2_variant(profile)
        if payload is None:
            self._record(VisibilityError(f"no variant visible to {subject_id}"))
            return None

        level = 3 if matched_group is not None else 2
        ticket = self._issue_ticket(
            subject_id=subject_id,
            level=level,
            group_id=matched_group or "",
            variant=payload.variant or "",
            session_key=session_key,
            transcript=res2_transcript,
            cert_not_after=leaf.not_after,
        )
        plaintext = self._frame_payload(payload, ticket)
        ciphertext = aead.encrypt(session_key, plaintext)
        mac_o = keys.object_mac(session_key, res2_transcript)
        res2 = Res2(ciphertext=ciphertext, mac_o=mac_o)
        self._store_res2_cache(peer_id, que2, res2)
        self._establish(peer_id, EstablishedSession(
            peer_id=subject_id,
            key=session_key,
            level=level,
            functions=payload.functions,
            group_id=matched_group,
        ))
        return res2

    # -- session resumption (RQUE -> RRES; symmetric ops only) ---------------------

    # lint: indistinguishable
    def handle_rque(self, rque: Rque, peer_id: str) -> Rres | None:
        """Answer a resumption query from its ticket alone — 0 public-key ops.

        Every failure path is silence (None), indistinguishable from the
        full handshake's failure behavior; the subject falls back to the
        4-way handshake.  The accept path performs the same symmetric-op
        sequence for Level 2 and covert Level 3 tickets — a marked
        INDIST-RETURN region: rejections may depend on ticket validity
        (every subject hits those identically) but never on the level or
        group the ticket encodes.
        """
        body = self.ticket_keyring.open(rque.ticket)
        if body is None:
            meter.record("resumption_reject")
            self._record(AuthenticationError(f"unopenable ticket from {peer_id}"))
            return None
        if body.epoch != self.creds.resumption_epoch:
            meter.record("resumption_reject")
            self._record(FreshnessError(
                f"stale ticket epoch {body.epoch} != {self.creds.resumption_epoch}"
            ))
            return None
        if body.expiry <= self.now:
            meter.record("resumption_reject")
            self._record(FreshnessError(f"expired ticket from {peer_id}"))
            return None
        if body.peer_id in self.creds.revoked_subjects:
            meter.record("resumption_reject")
            self._record(RevokedError(f"ticket from revoked subject {body.peer_id}"))
            return None
        expected_binder = kdf.rque_binder(body.master, rque.ticket, rque.r_s)
        if not constant_time_equal(expected_binder, rque.binder):
            meter.record("resumption_reject")
            self._record(AuthenticationError(f"bad RQUE binder from {peer_id}"))
            return None
        if not self.replay_ledger.redeem(body.ticket_id):
            meter.record("resumption_reject")
            self._record(FreshnessError(f"replayed ticket from {peer_id}"))
            # Replay rejection may answer with a constant-length decoy
            # (opt-in): same wire shape as an accept, never
            # authenticates, so recovery-path traffic stays uniform.
            return self._decoy_rres() if self.decoy_on_replay else None

        payload = self._ticket_variant(body)
        if payload is None:
            meter.record("resumption_reject")
            self._record(VisibilityError(
                f"ticket variant {body.variant!r} no longer served"
            ))
            return None

        r_o = fresh_nonce()
        session_key = kdf.derive_resumed_key(body.master, rque.r_s, r_o)
        transcript = rque.to_bytes() + r_o
        ticket = self._issue_ticket(
            subject_id=body.peer_id,
            level=body.level,
            group_id=body.group_id,
            variant=body.variant,
            session_key=session_key,
            transcript=transcript,
            cert_not_after=body.expiry,
        )
        plaintext = self._frame_payload(payload, ticket)
        ciphertext = aead.encrypt(session_key, plaintext)
        mac_o = kdf.object_finished(session_key, transcript + ciphertext)
        meter.record("resumption_accept")
        self._establish(peer_id, EstablishedSession(
            peer_id=body.peer_id,
            key=session_key,
            level=body.level,
            functions=payload.functions,
            group_id=body.group_id or None,
        ))
        return Rres(r_o=r_o, ciphertext=ciphertext, mac_o=mac_o)

    def _ticket_variant(self, body: TicketPayload) -> Profile | None:
        """The PROF variant a valid ticket entitles its holder to."""
        if body.level == 3:
            entry = self.creds.level3_variants.get(body.group_id)
            return entry[1] if entry is not None else None
        for variant in self.creds.level2_variants:
            if (variant.profile.variant or "") == body.variant:
                return variant.profile
        return None

    def _issue_ticket(
        self,
        subject_id: str,
        level: int,
        group_id: str,
        variant: str,
        session_key: bytes,
        transcript: bytes,
        cert_not_after: int,
    ) -> bytes | None:
        """Seal a single-use resumption ticket for a finished session.

        The resumption master secret is derived from the session key and
        transcript, so the subject computes the identical value without
        the ticket ever carrying it in the clear outside the AEAD.
        Returns None (no ticket) when issuance is off or the body does
        not fit its fixed frame — resumption is an optimization, never a
        correctness dependency.
        """
        if not self.issue_tickets:
            return None
        expiry = min(self.now + self.ticket_lifetime, cert_not_after)
        body = TicketPayload(
            ticket_id=fresh_ticket_id(),
            peer_id=subject_id,
            level=level,
            group_id=group_id,
            variant=variant,
            master=kdf.resumption_master(session_key, transcript),
            expiry=expiry,
            epoch=self.creds.resumption_epoch,
        )
        try:
            sealed = self.ticket_keyring.seal(body)
        except TicketError as exc:
            self._record(exc)
            return None
        meter.record("resumption_ticket_issued")
        return sealed

    # -- fault tolerance ----------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """Advance the engine clock; evict pending handshakes past TTL.

        Called by the transport before each dispatch.  The pending table
        was already *bounded* (LRU at ``SESSION_LIMIT``); TTL eviction
        closes the remaining half-open exhaustion window where an
        attacker keeps the table full of fresh entries so legitimate
        handshakes get evicted young.

        Insertion order is ``created_at`` order on a monotone host clock,
        so only the front is read: amortised O(1) per frame.  A clock run
        backwards leaves an expired entry behind a live one, still capped
        by the LRU bound.
        """
        self._clock = now_s
        cutoff = now_s - self.pending_ttl_s
        sessions = self._sessions
        while sessions and next(iter(sessions.values())).created_at < cutoff:
            sessions.popitem(last=False)

    def reset_cold(self) -> None:
        """A crash: all volatile (RAM) state is gone.

        Credentials, the ticket keyring and the replay ledger survive —
        a real device keeps those in flash precisely so a power-cycle
        cannot be used to launder replays.
        """
        self._sessions.clear()
        self._seen_nonces.clear()
        self._res2_replay_cache.clear()
        self.established.clear()
        self.peer_identity.clear()

    def _cached_res2(self, peer_id: str, que2: Que2) -> Res2 | None:
        """The byte-identical RES2 for an exactly-duplicated QUE2.

        Identical bytes ⇒ same sender, same transcript, same answer:
        resending teaches the network nothing it has not already
        carried, and costs no crypto (the zero-cost ``res2_retransmit``
        marker keeps the fast path visible to the meter without
        perturbing §IX-B accounting).  Anything that differs from the
        recorded exchange — even by one byte — is not a retransmission
        and gets the usual silence.
        """
        cached = self._res2_replay_cache.get(peer_id)
        if cached is None:
            return None
        recorded_bytes, res2 = cached
        if not constant_time_equal(recorded_bytes, que2.to_bytes()):
            return None
        self._res2_replay_cache.move_to_end(peer_id)
        meter.record("res2_retransmit")
        return res2

    def _store_res2_cache(self, peer_id: str, que2: Que2, res2: Res2) -> None:
        if not self.resend_cached_res2:
            return
        self._res2_replay_cache[peer_id] = (que2.to_bytes(), res2)
        while len(self._res2_replay_cache) > RES2_CACHE_LIMIT:
            self._res2_replay_cache.popitem(last=False)

    def _decoy_rres(self) -> Rres:
        """A random RRES shaped exactly like a real one.

        Ciphertext length matches a genuine padded RRES from this
        object, the MAC is random (it can never verify), and the
        zero-cost ``rres_decoy`` marker records the path.  Uniform for
        every subject and every ticket — nothing here depends on what
        the rejected ticket encoded.
        """
        meter.record("rres_decoy")
        ciphertext_len = aead.ciphertext_length(self.padded_payload_length())
        return Rres(
            r_o=fresh_nonce(),
            ciphertext=random_bytes(ciphertext_len),
            mac_o=random_bytes(MAC_LEN),
        )

    # -- helpers ------------------------------------------------------------------

    def _res1_level1(self) -> Res1Level1:
        """The (constant) Level 1 broadcast answer, serialized once.

        Re-signed/replaced profiles (backend pushes) are new objects, so
        keying on the profile's identity invalidates naturally.
        """
        profile = self.creds.public_profile
        if self._res1_l1_cache is None or self._res1_l1_cache[0] != id(profile):
            self._res1_l1_cache = (id(profile), Res1Level1(profile.to_bytes()))
        return self._res1_l1_cache[1]

    def _match_level2_variant(self, subject_profile: Profile) -> Profile | None:
        """First variant whose predicate the subject's attributes satisfy."""
        for variant in self.creds.level2_variants:
            if variant.predicate.evaluate(subject_profile.attributes):
                return variant.profile
        return None

    def _frame_payload(self, profile: Profile, ticket: bytes | None = None) -> bytes:
        """Length-frame the PROF variant (+ optional resumption ticket)
        and (v3.0) pad to constant size.

        "O appends minimum meaningless bytes to each of its PROF_O
        variants before transmission to make them identically long"
        (§VI-B) — otherwise ciphertext length leaks which variant (and
        hence which level) was served.  The sealed ticket has one fixed
        length, so appending it preserves the constant-size guarantee; a
        zero ticket-length field (or bare padding) means "no ticket".
        """
        body = profile.to_bytes()
        framed = len(body).to_bytes(4, "big") + body
        if ticket is not None:
            framed += len(ticket).to_bytes(4, "big") + ticket
        if self.version is not Version.V3_0:
            return framed
        target = self.padded_payload_length()
        if len(framed) < target:
            framed += b"\x00" * (target - len(framed))
        return framed

    def padded_payload_length(self) -> int:
        """Constant plaintext size: the longest variant this object holds,
        plus the fixed-length resumption-ticket slot when tickets are on.

        Memoized per variant-set: the key is the identity tuple of the
        variant profiles, so backend pushes that add/remove/replace a
        variant (new profile objects or a changed list) recompute it.
        """
        memo_id = (
            tuple(id(v.profile) for v in self.creds.level2_variants),
            tuple(id(p) for _, p in self.creds.level3_variants.values()),
            id(self.creds.public_profile),
            self.issue_tickets,
        )
        if self._padded_len_cache is None or self._padded_len_cache[0] != memo_id:
            sizes = [len(v.profile.to_bytes()) for v in self.creds.level2_variants]
            sizes += [len(p.to_bytes()) for _, p in self.creds.level3_variants.values()]
            if not sizes:
                sizes = [len(self.creds.public_profile.to_bytes())]
            target = 4 + max(sizes)
            if self.issue_tickets:
                target += 4 + SEALED_TICKET_LEN
            self._padded_len_cache = (memo_id, target)
        return self._padded_len_cache[1]

    def _remember_nonce(self, r_s: bytes) -> None:
        self._seen_nonces[r_s] = None
        while len(self._seen_nonces) > SEEN_NONCE_LIMIT:
            self._seen_nonces.popitem(last=False)

    def _store_session(self, peer_id: str, session: _ObjectSession) -> None:
        # A re-QUE1 goes to the back.
        _put_recent(self._sessions, peer_id, session, self.session_limit)

    def _establish(self, peer_id: str, session: EstablishedSession) -> None:
        """Record a finished handshake from transport peer *peer_id*."""
        _put_recent(self.peer_identity, peer_id, session.peer_id, PEER_IDENTITY_LIMIT)
        _put_recent(self.established, session.peer_id, session, PEER_IDENTITY_LIMIT)


def _put_recent(table: OrderedDict, key, value, limit: int) -> None:
    """Write *key* as *table*'s most recent entry; past *limit* entries
    the least recently written ones are dropped."""
    table.pop(key, None)
    table[key] = value
    while len(table) > limit:
        table.popitem(last=False)
