"""The subject-side (user device) protocol engine — sans-IO.

Drives the discovery rounds of Figs. 3–5: broadcast QUE1, process RES1s
(plaintext Level 1 profiles, or authenticated Level 2/3 handshake
openings), send per-object QUE2s, and classify RES2s by trying ``K2``
then ``K3`` (§VI-A: "S first tries to verify it with K2 … otherwise she
uses K3").
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from repro.backend.registration import SubjectCredentials
from repro.crypto import aead, kdf
from repro.crypto.keypool import ecdh_keypair
from repro.crypto.primitives import constant_time_equal, fresh_nonce
from repro.pki.chain import ChainVerifier
from repro.pki.profile import Profile, ProfileError
from repro.protocol.errors import (
    AuthenticationError,
    ErrorLog,
    MessageFormatError,
    SessionError,
)
from repro.protocol.messages import Que1, Que2, Res1, Res1Level1, Res2, Rque, Rres
from repro.protocol.resumption import StoredTicket
from repro.protocol.session import EstablishedSession, SessionKeys, Transcript
from repro.protocol.versions import Version


@dataclass(frozen=True)
class DiscoveredService:
    """One discovered service, as perceived by the subject.

    ``level_seen`` is what the subject can *tell*: a Level 3 object that
    answered with ``MAC_{O,2}`` is indistinguishable from a Level 2
    object, so it reports as level 2 (§VI-B's double-faced role).
    """

    object_id: str
    level_seen: int
    profile: Profile
    via_group: str | None = None

    @property
    def functions(self) -> tuple[str, ...]:
        return self.profile.functions


@dataclass
class _SubjectSession:
    object_id: str
    r_o: bytes
    transcript: Transcript
    keys: SessionKeys
    mac_transcript: bytes = b""
    res2_transcript: bytes = b""
    done: bool = False


#: Seconds an unanswered RQUE may wait before its state is reclaimed
#: (mirrors the object's pending-handshake TTL; only enforced where a
#: transport ticks the engine).
PENDING_RESUME_TTL_S = 30.0


@dataclass
class _ResumeState:
    """One in-flight RQUE, awaiting its RRES."""

    r_s: bytes
    rque_bytes: bytes
    master: bytes
    level: int
    group_id: str | None
    #: Engine-clock time the RQUE was built (TTL eviction).
    created_at: float = 0.0


class SubjectEngine(ErrorLog):
    """One subject device's discovery state machine."""

    def __init__(
        self,
        creds: SubjectCredentials,
        version: Version = Version.V3_0,
        now: int = 1,
    ) -> None:
        super().__init__()
        self.creds = creds
        self.version = version
        self.now = now
        self.verifier = ChainVerifier(creds.root_id, creds.admin_public)
        self._r_s: bytes = b""
        self._que1_bytes: bytes = b""
        self._sessions: dict[str, _SubjectSession] = {}
        #: Peers whose Level 1 RES1 this round already verified.
        self._level1_peers: set[str] = set()
        self._group_id: str = "coverup"
        self._group_key: bytes = creds.coverup_key
        #: Peers this round does not handshake with (see start_round).
        self._settled: Container[str] = ()
        self.discovered: list[DiscoveredService] = []
        #: Completed handshakes, keyed by object id, for the access layer.
        self.established: dict[str, EstablishedSession] = {}
        #: Resumption tickets issued by objects, keyed by object id
        #: (repro.protocol.resumption).  Single-use: popped on send.
        self.tickets: dict[str, StoredTicket] = {}
        #: In-flight RQUE state, keyed by object id.
        self._pending_resume: dict[str, _ResumeState] = {}
        #: Engine clock in seconds, advanced by the transport's tick().
        self._clock: float = 0.0

    # -- round control -----------------------------------------------------------

    def start_round(
        self, group_id: str | None = None, settled: Container[str] = ()
    ) -> Que1:
        """Begin a discovery round; returns the QUE1 to broadcast.

        ``group_id`` picks which Level 3 key this round uses (§VI-C: one
        group key at a time). ``None`` uses a real group key if the
        subject has exactly one, otherwise the cover-up key — so every
        subject, member or not, emits identical-looking traffic (v3.0).

        ``settled`` holds the peers a later round no longer seeks:
        their RES1s to this round's QUE1 are dropped without any crypto
        or error record.  The default seeks every peer.
        """
        if group_id is None:
            if len(self.creds.group_keys) == 1:
                group_id = next(iter(self.creds.group_keys))
            else:
                group_id = "coverup"
        if group_id == "coverup":
            key = self.creds.coverup_key
        else:
            try:
                key = self.creds.group_keys[group_id]
            except KeyError:
                raise SessionError(f"subject holds no key for group {group_id!r}") from None
        self._group_id, self._group_key = group_id, key
        self._settled = settled
        self._r_s = fresh_nonce()
        self._sessions.clear()
        self._level1_peers.clear()
        que1 = Que1(self._r_s)
        self._que1_bytes = que1.to_bytes()
        return que1

    # -- phase 1 responses ----------------------------------------------------------

    def handle_res1_level1(self, res1: Res1Level1, peer_id: str) -> DiscoveredService | None:
        """A plaintext Level 1 profile: verify the admin signature."""
        if peer_id in self._settled:
            return None
        if peer_id in self._level1_peers:
            self._record(SessionError(f"duplicate RES1 from {peer_id}"))
            return None
        try:
            profile = Profile.from_bytes(res1.profile_bytes)
        except ProfileError as exc:
            self._record(MessageFormatError(f"{peer_id}: {exc}"))
            return None
        if not profile.verify(self.creds.admin_public):
            self._record(AuthenticationError(f"bad Level 1 PROF from {peer_id}"))
            return None
        service = DiscoveredService(profile.entity_id, 1, profile)
        self._level1_peers.add(peer_id)
        self.discovered.append(service)
        return service

    def handle_res1(self, res1: Res1, peer_id: str) -> Que2 | None:
        """A Level 2/3 opening: authenticate it and answer with QUE2."""
        if peer_id in self._settled:
            return None
        if not self._r_s:
            self._record(SessionError("RES1 before any round started"))
            return None
        if peer_id in self._sessions:
            self._record(SessionError(f"duplicate RES1 from {peer_id}"))
            return None

        leaf = self.verifier.verify_chain_bytes(res1.cert_chain_bytes, self.now)
        if leaf is None:
            self._record(AuthenticationError(f"bad object chain from {peer_id}"))
            return None
        if not leaf.public_key.verify(res1.signature, self._r_s + res1.r_o + res1.kexm):
            self._record(AuthenticationError(f"bad RES1 signature from {peer_id}"))
            return None

        ecdh = ecdh_keypair(self.creds.strength)
        try:
            pre_k = ecdh.derive_premaster(res1.kexm)
        except ValueError as exc:
            self._record(MessageFormatError(f"bad KEXM_O from {peer_id}: {exc}"))
            return None
        keys = SessionKeys.from_premaster(
            pre_k, self._r_s, res1.r_o, {self._group_id: self._group_key}
        )

        transcript = Transcript()
        transcript.append(self._que1_bytes)
        transcript.append(res1.to_bytes())

        que2 = self._build_que2(transcript, keys, ecdh.kexm)
        session = _SubjectSession(
            object_id=leaf.subject_id,
            r_o=res1.r_o,
            transcript=transcript,
            keys=keys,
        )
        session.mac_transcript = (
            transcript.snapshot() + que2.signed_portion() + que2.signature
        )
        session.res2_transcript = (
            session.mac_transcript + que2.mac_s2 + (que2.mac_s3 or b"")
        )
        self._sessions[peer_id] = session
        return que2

    def _build_que2(self, transcript: Transcript, keys: SessionKeys, kexm: bytes) -> Que2:
        profile_bytes = self.creds.profile.to_bytes()
        cert_bytes = self.creds.cert_chain.to_bytes()
        signed_fields = Que2(
            profile_bytes=profile_bytes,
            cert_chain_bytes=cert_bytes,
            kexm=kexm,
            signature=b"\x00" * 4,  # placeholder; only signed_portion is used
            mac_s2=b"\x00" * 32,
        ).signed_portion()
        signature = self.creds.signing_key.sign(transcript.snapshot() + signed_fields)
        mac_transcript = transcript.snapshot() + signed_fields + signature
        mac_s2 = keys.subject_mac(keys.k2, mac_transcript)

        # v1.0 never sends MAC_S3; v2.0 sends it only when genuinely
        # seeking Level 3 (a real group key); v3.0 sends it always —
        # cover-up keys make that possible (§VI-B).
        mac_s3: bytes | None = None
        if self.version is Version.V3_0:
            mac_s3 = keys.subject_mac(keys.k3[self._group_id], mac_transcript)
        elif self.version is Version.V2_0 and self._group_id != "coverup":
            mac_s3 = keys.subject_mac(keys.k3[self._group_id], mac_transcript)

        return Que2(
            profile_bytes=profile_bytes,
            cert_chain_bytes=cert_bytes,
            kexm=kexm,
            signature=signature,
            mac_s2=mac_s2,
            mac_s3=mac_s3,
        )

    # -- phase 2 responses -------------------------------------------------------------

    def handle_res2(self, res2: Res2, peer_id: str) -> DiscoveredService | None:
        """Classify a RES2 by trying K2 then K3 (§VI-A)."""
        session = self._sessions.get(peer_id)
        if session is None or session.done:
            self._record(SessionError(f"RES2 without open session from {peer_id}"))
            return None
        session.done = True

        keys = session.keys
        k3 = keys.k3[self._group_id]
        expected_mac2 = keys.object_mac(keys.k2, session.res2_transcript)
        expected_mac3 = keys.object_mac(k3, session.res2_transcript)

        if constant_time_equal(expected_mac2, res2.mac_o):
            session_key, level, via_group = keys.k2, 2, None
        elif constant_time_equal(expected_mac3, res2.mac_o):
            session_key, level, via_group = k3, 3, self._group_id
        else:
            self._record(AuthenticationError(f"unverifiable MAC_O from {peer_id}"))
            return None

        try:
            plaintext = aead.decrypt(session_key, res2.ciphertext)
        except aead.AeadError as exc:
            self._record(AuthenticationError(f"RES2 decrypt failed from {peer_id}: {exc}"))
            return None

        unframed = self._unframe_payload(plaintext, peer_id)
        if unframed is None:
            return None
        profile, ticket = unframed
        if not profile.verify(self.creds.admin_public):
            self._record(AuthenticationError(f"bad PROF_O signature from {peer_id}"))
            return None
        if profile.entity_id != session.object_id:
            self._record(AuthenticationError(
                f"PROF_O identity {profile.entity_id!r} != CERT identity "
                f"{session.object_id!r}"
            ))
            return None
        service = DiscoveredService(session.object_id, level, profile, via_group)
        self.discovered.append(service)
        self.established[session.object_id] = EstablishedSession(
            peer_id=session.object_id,
            key=session_key,
            level=level,
            functions=profile.functions,
            group_id=via_group,
        )
        if ticket is not None:
            self.tickets[session.object_id] = StoredTicket(
                ticket=ticket,
                master=kdf.resumption_master(session_key, session.res2_transcript),
                level=level,
                group_id=via_group,
            )
        return service

    def _unframe_payload(
        self, plaintext: bytes, peer_id: str
    ) -> tuple[Profile, bytes | None] | None:
        """Parse ``len || PROF [|| len || ticket] || padding``.

        A zero ticket-length field — which is also what bare v3.0 zero
        padding looks like — means the object issued no ticket.
        """
        if len(plaintext) < 4:
            self._record(MessageFormatError(f"short payload from {peer_id}"))
            return None
        length = int.from_bytes(plaintext[:4], "big")
        if 4 + length > len(plaintext):
            self._record(MessageFormatError(f"bad payload framing from {peer_id}"))
            return None
        try:
            profile = Profile.from_bytes(plaintext[4 : 4 + length])
        except ProfileError as exc:
            self._record(MessageFormatError(f"{peer_id}: {exc}"))
            return None
        ticket: bytes | None = None
        rest = plaintext[4 + length :]
        if len(rest) >= 4:
            ticket_len = int.from_bytes(rest[:4], "big")
            if ticket_len and 4 + ticket_len <= len(rest):
                ticket = rest[4 : 4 + ticket_len]
        return profile, ticket

    # -- session resumption (RQUE -> RRES; symmetric ops only) ---------------------

    def has_ticket(self, object_id: str) -> bool:
        return object_id in self.tickets

    def start_resumption(self, object_id: str) -> Rque | None:
        """Open the 2-message fast path toward a previously discovered object.

        Pops the stored ticket (single-use on our side too: if the RRES
        never arrives or fails, the next round falls back to the full
        handshake rather than replaying a ticket the object would reject
        anyway).  Returns None when we hold no ticket for *object_id*.
        """
        stored = self.tickets.pop(object_id, None)
        if stored is None:
            return None
        r_s = fresh_nonce()
        binder = kdf.rque_binder(stored.master, stored.ticket, r_s)
        rque = Rque(ticket=stored.ticket, r_s=r_s, binder=binder)
        self._pending_resume[object_id] = _ResumeState(
            r_s=r_s,
            rque_bytes=rque.to_bytes(),
            master=stored.master,
            level=stored.level,
            group_id=stored.group_id,
            created_at=self._clock,
        )
        return rque

    def handle_rres(self, rres: Rres, peer_id: str) -> DiscoveredService | None:
        """Finish a resumption: derive K2', authenticate, decrypt, re-ticket.

        No public-key operation happens here — not even a cached
        ``Profile.verify`` (whose hits still meter the logical
        ``ecdsa_verify``).  Authenticity chains through the resumption
        master: only the object that completed the original, fully
        authenticated handshake can compute K2' and the finished MAC, and
        the PROF it re-serves was admin-signature-checked back then.
        """
        state = self._pending_resume.pop(peer_id, None)
        if state is None:
            self._record(SessionError(f"RRES without pending RQUE from {peer_id}"))
            return None

        session_key = kdf.derive_resumed_key(state.master, state.r_s, rres.r_o)
        transcript = state.rque_bytes + rres.r_o
        expected_mac = kdf.object_finished(session_key, transcript + rres.ciphertext)
        if not constant_time_equal(expected_mac, rres.mac_o):
            self._record(AuthenticationError(f"bad RRES MAC_O from {peer_id}"))
            return None
        try:
            plaintext = aead.decrypt(session_key, rres.ciphertext)
        except aead.AeadError as exc:
            self._record(AuthenticationError(f"RRES decrypt failed from {peer_id}: {exc}"))
            return None

        unframed = self._unframe_payload(plaintext, peer_id)
        if unframed is None:
            return None
        profile, ticket = unframed
        if profile.entity_id != peer_id:
            self._record(AuthenticationError(
                f"PROF_O identity {profile.entity_id!r} != resumed peer {peer_id!r}"
            ))
            return None

        service = DiscoveredService(peer_id, state.level, profile, state.group_id)
        self.discovered.append(service)
        self.established[peer_id] = EstablishedSession(
            peer_id=peer_id,
            key=session_key,
            level=state.level,
            functions=profile.functions,
            group_id=state.group_id,
        )
        if ticket is not None:
            # The refresh ticket's master is bound to the RQUE||R_O
            # transcript — the same value the object derived at issuance.
            self.tickets[peer_id] = StoredTicket(
                ticket=ticket,
                master=kdf.resumption_master(session_key, transcript),
                level=state.level,
                group_id=state.group_id,
            )
        return service

    # -- fault tolerance -----------------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """Advance the engine clock; reclaim RQUE state nobody answered."""
        self._clock = now_s
        cutoff = now_s - PENDING_RESUME_TTL_S
        expired = [
            object_id
            for object_id, state in self._pending_resume.items()
            if state.created_at < cutoff
        ]
        for object_id in expired:
            del self._pending_resume[object_id]

    def reset_cold(self) -> None:
        """A crash: in-flight handshake and resumption state is gone.

        Discovered services and banked tickets survive (the device's
        persistent service registry); an interrupted round simply starts
        over after the restart.
        """
        self._sessions.clear()
        self._level1_peers.clear()
        self._pending_resume.clear()
        self.established.clear()
        self._r_s = b""
        self._que1_bytes = b""
