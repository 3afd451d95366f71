"""The verifier's side of a signed hash chain, one class for every scheme.

A notary statement and a proxy log head each sign the head of a hash
chain and the number of items it holds, as a signed tree head of RFC
9162 does over Crosby and Wallach's tamper-evident log. A notary chains
records (``toytls.chain_link``), a proxy exchanges (``tee_proxy.log_link``).
The verifier checks the signature once, rebuilds the chain from the
proofs naming the session, in the order the trace invokes them, and at
the end requires the signed count and head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import Rejected


@dataclass
class OpenChain:
    """A signed chain head checked once, and the chain its proofs rebuild.

    ``signed`` is the decoded signed object and ``key`` the public key
    its signature was checked under. ``take`` links the next item on with
    the scheme's ``link``; ``close`` requires that the signed ``count``
    of items was linked and that they reach ``signed_head``. A violation
    is the scheme's ``reason``, and ``unit`` names the items.
    """

    signed: Any
    key: str
    count: int
    signed_head: Any
    head: Any  # the chain's start until the first item is linked
    link: Callable
    reason: str
    unit: str
    taken: int = 0

    def take(self, *item) -> None:
        if self.taken == self.count:
            raise Rejected(
                self.reason,
                f"the session holds {self.count} {self.unit}, and the proofs carry more",
            )
        self.head = self.link(self.head, *item)
        self.taken += 1

    def close(self) -> None:
        if self.taken != self.count:
            raise Rejected(
                self.reason,
                f"the session holds {self.count} {self.unit}, {self.taken} were proven",
            )
        if self.head != self.signed_head:
            raise Rejected(self.reason, f"the {self.unit} do not chain to the signed head")
