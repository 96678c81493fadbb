"""Per-device cryptographic cost tables calibrated to the paper's testbed.

The paper's timing experiments run on a Nexus 6 subject device
(OpenAndroidSSL) and Raspberry Pi 3 objects (JCA). This module encodes
per-operation costs for those devices, anchored to every number §IX
reports:

* Fig. 6(a): subject-side ECDSA sign at 112-bit = 4.7 ms, 256-bit =
  26.0 ms; verification / ECDH secret computation "similar or slightly
  longer" than signing / parameter generation.
* Fig. 6(b): Level 1 subject computation (one verify) = 5.1 ms; Level 2/3
  subject (1 sign + 3 verify + 2 ECDH) = 27.4 ms; object = 78.2 ms.
* §VI-A / §IX-C: an HMAC costs ~0.08 ms on a Pi, <1 ms everywhere; AES
  under 1 ms.
* Fig. 6(c): ABE decryption grows ~1 s per policy attribute (subject).
* Fig. 6(d): one pairing costs 2.2 s on the subject, 7.7 s on a Pi.

The simulator's ``calibrated`` timing mode multiplies an
:class:`repro.crypto.meter.OpMeter` tally by these tables to advance the
simulated clock; ``measured`` mode ignores this module and uses local
wall-clock time instead. The tables are dataclasses so ablation
experiments can swap in modified profiles (e.g. "what if objects were as
fast as phones?").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.crypto.meter import OpMeter

#: Strengths Fig. 6(a) sweeps.
STRENGTHS = (112, 128, 192, 256)

#: Cache-visibility markers (docs/performance.md): recorded *alongside*
#: the logical op they annotate, so they carry no cost of their own —
#: the logical op already prices the work in calibrated mode.
CACHE_MARKER_OPS = frozenset(
    {
        "profile_verify_cached",
        "cert_verify_cached",
        "ecdh_pool_hit",
        "ecdh_pool_miss",
        # Session-resumption fast path (repro.protocol.resumption): the
        # real work (AEAD, HMAC) meters separately; these only mark which
        # path ran.
        "resumption_ticket_issued",
        "resumption_accept",
        "resumption_reject",
        # Fault-recovery paths (repro.net.faults / docs/robustness.md):
        # a cached RES2 resend re-sends stored bytes, and a decoy RRES is
        # random bytes — neither performs new priced crypto.
        "res2_retransmit",
        "rres_decoy",
    }
)


@dataclass(frozen=True)
class DeviceProfile:
    """Per-operation costs (milliseconds) for one device class.

    Strength-dependent ops map ``strength -> ms``; the rest are flat.
    """

    name: str
    ecdsa_sign: dict[int, float] = field(default_factory=dict)
    ecdsa_verify: dict[int, float] = field(default_factory=dict)
    ecdh_gen: dict[int, float] = field(default_factory=dict)
    ecdh_derive: dict[int, float] = field(default_factory=dict)
    hmac_ms: float = 0.05
    aes_ms: float = 0.5
    pairing_ms: float = 2200.0
    g1_exp_ms: float = 25.0
    g1_mul_ms: float = 0.2
    gt_exp_ms: float = 5.0
    gt_mul_ms: float = 0.05
    hash_to_g1_ms: float = 12.0
    #: Fixed non-crypto per-message processing (parsing, scheduling, app stack).
    per_message_ms: float = 3.0
    #: ``(op, strength) -> ms``, filled by :meth:`meter_cost_ms` as it prices.
    _prices: dict[tuple[str, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def op_cost_ms(self, op: str, strength: int = 0) -> float:
        """Cost of one operation in milliseconds."""
        if op in CACHE_MARKER_OPS:
            return 0.0
        strength = strength or 128
        tables = {
            "ecdsa_sign": self.ecdsa_sign,
            "ecdsa_verify": self.ecdsa_verify,
            "ecdh_gen": self.ecdh_gen,
            "ecdh_derive": self.ecdh_derive,
        }
        if op in tables:
            table = tables[op]
            if strength not in table:
                raise ValueError(f"{self.name}: no {op} cost at strength {strength}")
            return table[strength]
        flat = {
            "hmac": self.hmac_ms,
            "aes": self.aes_ms,
            "pairing": self.pairing_ms,
            "g1_exp": self.g1_exp_ms,
            "g1_mul": self.g1_mul_ms,
            "gt_exp": self.gt_exp_ms,
            "gt_mul": self.gt_mul_ms,
            "hash_to_g1": self.hash_to_g1_ms,
            "abe_decrypt": 0.0,  # priced via its constituent pairings
        }
        if op in flat:
            return flat[op]
        raise ValueError(f"{self.name}: unknown operation {op!r}")

    def meter_cost_ms(self, tally: OpMeter) -> float:
        """Total cost of every operation recorded in *tally*."""
        prices = self._prices
        total = 0
        for key, n in tally.counts.items():
            price = prices.get(key)
            if price is None:
                price = prices[key] = self.op_cost_ms(*key)
            total += price * n
        return total

    def scaled(self, factor: float, name: str | None = None) -> "DeviceProfile":
        """A uniformly faster/slower variant, for ablations."""
        return replace(
            self,
            name=name or f"{self.name} x{factor:g}",
            ecdsa_sign={k: v * factor for k, v in self.ecdsa_sign.items()},
            ecdsa_verify={k: v * factor for k, v in self.ecdsa_verify.items()},
            ecdh_gen={k: v * factor for k, v in self.ecdh_gen.items()},
            ecdh_derive={k: v * factor for k, v in self.ecdh_derive.items()},
            hmac_ms=self.hmac_ms * factor,
            aes_ms=self.aes_ms * factor,
            pairing_ms=self.pairing_ms * factor,
            g1_exp_ms=self.g1_exp_ms * factor,
            g1_mul_ms=self.g1_mul_ms * factor,
            gt_exp_ms=self.gt_exp_ms * factor,
            gt_mul_ms=self.gt_mul_ms * factor,
            hash_to_g1_ms=self.hash_to_g1_ms * factor,
            per_message_ms=self.per_message_ms * factor,
        )


# Anchors (see module docstring). The 128-bit subject line is solved so
# that 1 sign + 3 verify + 1 gen + 1 derive = 27.4 ms (Fig. 6(b)) with
# verify = 5.1 ms (the Level 1 number); the other strengths follow the
# measured growth of Fig. 6(a) (4.7 ms at 112 -> 26.0 ms at 256).
NEXUS6 = DeviceProfile(
    name="Nexus 6 (subject)",
    ecdsa_sign={112: 4.7, 128: 5.0, 192: 12.6, 256: 26.0},
    ecdsa_verify={112: 4.9, 128: 5.1, 192: 13.4, 256: 28.1},
    ecdh_gen={112: 3.2, 128: 3.4, 192: 8.6, 256: 17.7},
    ecdh_derive={112: 3.5, 128: 3.7, 192: 9.3, 256: 19.2},
    hmac_ms=0.03,
    aes_ms=0.4,
    pairing_ms=2200.0,   # Fig. 6(d), subject side
    per_message_ms=1.0,
)

# The Pi profile is the subject profile scaled by 78.2 / 27.4 (Fig. 6(b))
# with the paper's directly-reported Pi numbers overriding: HMAC 0.08 ms
# (§IX-C), pairing 7.7 s (Fig. 6(d)).
_PI_SCALE = 78.2 / 27.4
RASPBERRY_PI3 = DeviceProfile(
    name="Raspberry Pi 3 (object)",
    ecdsa_sign={s: round(v * _PI_SCALE, 2) for s, v in NEXUS6.ecdsa_sign.items()},
    ecdsa_verify={s: round(v * _PI_SCALE, 2) for s, v in NEXUS6.ecdsa_verify.items()},
    ecdh_gen={s: round(v * _PI_SCALE, 2) for s, v in NEXUS6.ecdh_gen.items()},
    ecdh_derive={s: round(v * _PI_SCALE, 2) for s, v in NEXUS6.ecdh_derive.items()},
    hmac_ms=0.08,
    aes_ms=0.9,
    pairing_ms=7700.0,   # Fig. 6(d), object side
    per_message_ms=4.0,
)

#: ABE decryption cost per policy attribute on the subject (Fig. 6(c)).
#: BSW07 does 2 pairings per leaf + 1 blinding pairing; at 2.2 s the raw
#: pairing count over-prices the Java library's measured ~1 s/attribute,
#: so the figure's experiment uses this direct per-attribute anchor.
ABE_SUBJECT_MS_PER_ATTRIBUTE = 1000.0
ABE_SUBJECT_BASE_MS = 500.0


def abe_decrypt_ms(n_attributes: int) -> float:
    """Paper-calibrated ABE decryption time on the subject device."""
    if n_attributes < 1:
        raise ValueError("a policy has at least one attribute")
    return ABE_SUBJECT_BASE_MS + ABE_SUBJECT_MS_PER_ATTRIBUTE * n_attributes
