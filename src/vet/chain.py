"""The verifier's side of a signed hash chain, one class for every scheme.

A notary statement and a proxy log head each sign the head of a
``toytls.RecordChain`` and the number of records it holds, as a signed
tree head of RFC 9162 does over Crosby and Wallach's tamper-evident log.
A notary chains the records of a toy-TLS session, a proxy an up and a
down record per exchange. The verifier checks the signature once,
rebuilds the chain from the proofs naming the session, in the order the
trace invokes them, and at the end requires the signed count and head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import Rejected
from .toytls import RecordChain


@dataclass
class OpenChain:
    """A signed chain head checked once, and the chain its proofs rebuild.

    ``signed`` is the decoded signed object, with its ``records`` count
    and ``head``, and ``key`` the public key its signature was checked
    under. ``take`` chains the next record on; ``close`` requires that
    the signed count of records was taken and that they reach the signed
    head. A violation is the scheme's ``reason``.
    """

    signed: Any
    key: str
    reason: str
    chain: RecordChain = field(default_factory=RecordChain)

    def take(self, direction: str, length: int, tag: bytes) -> None:
        if self.chain.count == self.signed.records:
            raise Rejected(
                self.reason,
                f"the session holds {self.signed.records} records, and the proofs carry more",
            )
        self.chain.take(direction, length, tag)

    def close(self) -> None:
        if self.chain.count != self.signed.records:
            raise Rejected(
                self.reason,
                f"the session holds {self.signed.records} records, "
                f"{self.chain.count} were proven",
            )
        if self.chain.head != self.signed.head:
            raise Rejected(self.reason, "the records do not chain to the signed head")
