"""Authentication and authorization for MIRTO agents and the continuum.

Covers the Table I Security and Privacy commitments: "authorization and
authentication mechanisms of users/resources". The MIRTO agent's
Authentication Module (paper Fig. 3) validates API callers using
HMAC-signed bearer tokens; authorization is role-based, with permissions
like ``deploy``, ``observe`` and ``reconfigure`` scoped per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.errors import SecurityError
from repro.security.primitives.sha2 import constant_time_eq, hmac


# Permission vocabulary for orchestration actions.
PERMISSIONS = frozenset({
    "deploy", "undeploy", "observe", "reconfigure", "manage-users",
    "manage-slices",
})

BUILTIN_ROLES: dict[str, frozenset[str]] = {
    "admin": PERMISSIONS,
    "operator": frozenset({"deploy", "undeploy", "observe", "reconfigure"}),
    "developer": frozenset({"deploy", "observe"}),
    "auditor": frozenset({"observe"}),
}


@dataclass(frozen=True)
class User:
    """A principal allowed to talk to a MIRTO agent."""

    name: str
    roles: tuple[str, ...]

    def permissions(self) -> frozenset[str]:
        perms: set[str] = set()
        for role in self.roles:
            perms |= BUILTIN_ROLES.get(role, frozenset())
        return frozenset(perms)


@dataclass
class Token:
    """A bearer token: payload plus HMAC tag."""

    payload: dict
    tag: bytes

    def encode(self) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode()
        return body + b"." + self.tag.hex().encode()

    @staticmethod
    def decode(wire: bytes) -> "Token":
        if not isinstance(wire, bytes):
            raise SecurityError("malformed token")
        try:
            body, tag_hex = wire.rsplit(b".", 1)
            return Token(json.loads(body), bytes.fromhex(tag_hex.decode()))
        except (ValueError, json.JSONDecodeError) as exc:
            raise SecurityError("malformed token") from exc


class AuthModule:
    """The MIRTO agent's Authentication Module (Fig. 3).

    Issues and validates tokens, tracks users, and answers authorization
    queries. ``now_fn`` supplies the current (simulated) time so token
    expiry follows the simulation clock.
    """

    def __init__(self, secret: bytes, now_fn=None):
        if len(secret) < 16:
            raise SecurityError("auth secret must be at least 16 bytes")
        self._secret = secret
        self._users: dict[str, User] = {}
        self._revoked: set[str] = set()
        self._now = now_fn or (lambda: 0.0)
        self.auth_failures = 0
        self.auth_successes = 0

    # -- user management ---------------------------------------------------------

    def register_user(self, name: str, roles: list[str]) -> User:
        """Create a user with the given roles."""
        unknown = [r for r in roles if r not in BUILTIN_ROLES]
        if unknown:
            raise SecurityError(f"unknown roles: {unknown}")
        user = User(name=name, roles=tuple(roles))
        self._users[name] = user
        return user

    def user(self, name: str) -> User:
        if name not in self._users:
            raise SecurityError(f"unknown user {name!r}")
        return self._users[name]

    # -- tokens -------------------------------------------------------------------

    def issue_token(self, user_name: str, ttl_s: float = 3600.0) -> bytes:
        """Issue a bearer token for an existing user."""
        user = self.user(user_name)
        payload = {
            "sub": user.name,
            "roles": list(user.roles),
            "exp": self._now() + ttl_s,
        }
        body = json.dumps(payload, sort_keys=True).encode()
        return Token(payload, hmac(self._secret, body)[:16]).encode()

    def revoke(self, user_name: str) -> None:
        """Revoke all current and future tokens of *user_name*."""
        self._revoked.add(user_name)

    def authenticate(self, wire_token: bytes) -> User:
        """Validate a token; returns the authenticated user or raises."""
        token = Token.decode(wire_token)
        body = json.dumps(token.payload, sort_keys=True).encode()
        expected = hmac(self._secret, body)[:16]
        if not constant_time_eq(token.tag, expected):
            self.auth_failures += 1
            raise SecurityError("token signature invalid")
        if token.payload.get("exp", 0) < self._now():
            self.auth_failures += 1
            raise SecurityError("token expired")
        name = token.payload.get("sub", "")
        if name in self._revoked or name not in self._users:
            self.auth_failures += 1
            raise SecurityError(f"token subject {name!r} not accepted")
        self.auth_successes += 1
        return self._users[name]

    # -- authorization ------------------------------------------------------------

    def authorize(self, user: User, permission: str) -> None:
        """Raise :class:`SecurityError` unless *user* holds *permission*."""
        if permission not in PERMISSIONS:
            raise SecurityError(f"unknown permission {permission!r}")
        if permission not in user.permissions():
            raise SecurityError(
                f"user {user.name!r} lacks permission {permission!r}"
            )
