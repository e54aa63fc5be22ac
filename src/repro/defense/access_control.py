"""Identification & authentication and use control (IEC 62443 FR1 / FR2).

IEC TS 63074 names "identification and authentication, access control" among
the countermeasures protecting machinery safety functions.  The model here:

* :class:`Role` — a named role with a set of permissions;
* :class:`AccessControlPolicy` — role assignments per identity plus the
  authorisation check used by the command channel;
* :class:`Session` — an authenticated session with expiry and lockout after
  repeated failures (FR1 requirement elements).

Certificates carry roles (issued by the worksite CA), so authentication
chains to the PKI: the policy can authorise directly from a verified
certificate's role set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from repro.comms.crypto.certificates import Certificate
from repro.comms.messages import Message


@dataclass(frozen=True)
class Role:
    """A named role granting a set of permissions."""

    name: str
    permissions: frozenset

    @staticmethod
    def of(name: str, permissions: Sequence[str]) -> "Role":
        return Role(name=name, permissions=frozenset(permissions))


#: default worksite roles
OPERATOR = Role.of("operator", ["command.emergency_stop", "command.resume",
                                "command.set_speed_limit", "command.goto",
                                "telemetry.read"])
SAFETY_OFFICER = Role.of("safety_officer", ["command.emergency_stop", "telemetry.read"])
MAINTAINER = Role.of("maintainer", ["telemetry.read", "config.write"])
OBSERVER = Role.of("observer", ["telemetry.read"])

DEFAULT_ROLES: Dict[str, Role] = {
    role.name: role for role in (OPERATOR, SAFETY_OFFICER, MAINTAINER, OBSERVER)
}


@dataclass
class Session:
    """An authenticated session."""

    identity: str
    roles: Set[str]
    established_at: float
    expires_at: float

    def active(self, now: float) -> bool:
        return now <= self.expires_at


class AccessControlPolicy:
    """Role-based authorisation with sessions and lockout.

    The role catalogue is the worksite's (:data:`DEFAULT_ROLES`).

    Parameters
    ----------
    session_lifetime_s:
        Session validity.
    max_failures:
        Consecutive authentication failures before lockout.
    lockout_s:
        Lockout duration.
    """

    def __init__(
        self,
        *,
        session_lifetime_s: float = 3600.0,
        max_failures: int = 3,
        lockout_s: float = 300.0,
    ) -> None:
        self.roles = dict(DEFAULT_ROLES)
        self.assignments: Dict[str, Set[str]] = {}
        self.session_lifetime_s = session_lifetime_s
        self.max_failures = max_failures
        self.lockout_s = lockout_s
        self._sessions: Dict[str, Session] = {}
        self._failures: Dict[str, int] = {}
        self._locked_until: Dict[str, float] = {}

    # -- administration -----------------------------------------------------
    def assign(self, identity: str, role_name: str) -> None:
        if role_name not in self.roles:
            raise KeyError(f"unknown role {role_name!r}")
        self.assignments.setdefault(identity, set()).add(role_name)

    def revoke(self, identity: str, role_name: str) -> None:
        self.assignments.get(identity, set()).discard(role_name)

    def permissions_of(self, identity: str) -> Set[str]:
        perms: Set[str] = set()
        for role_name in self.assignments.get(identity, ()):  # noqa: B020
            perms |= self.roles[role_name].permissions
        return perms

    # -- authentication / sessions ------------------------------------------
    def is_locked(self, identity: str, now: float) -> bool:
        return now < self._locked_until.get(identity, -1.0)

    def authenticate(self, identity: str, credential_valid: bool, now: float) -> Optional[Session]:
        """Establish a session when the presented credential verified.

        ``credential_valid`` is the outcome of the PKI/channel verification;
        the policy only manages failure counting, lockout and session issue.
        """
        if self.is_locked(identity, now):
            return None
        if not credential_valid:
            self._failures[identity] = self._failures.get(identity, 0) + 1
            if self._failures[identity] >= self.max_failures:
                self._locked_until[identity] = now + self.lockout_s
                self._failures[identity] = 0
            return None
        self._failures[identity] = 0
        session = Session(
            identity=identity,
            roles=set(self.assignments.get(identity, ())),
            established_at=now,
            expires_at=now + self.session_lifetime_s,
        )
        self._sessions[identity] = session
        return session

    def session_of(self, identity: str, now: float) -> Optional[Session]:
        session = self._sessions.get(identity)
        if session is not None and session.active(now):
            return session
        return None

    # -- authorisation --------------------------------------------------------
    def authorize(self, identity: str, permission: str, now: float) -> bool:
        """Check ``identity`` holds ``permission`` through an active session."""
        session = self.session_of(identity, now)
        if session is None:
            return False
        return permission in self.permissions_of(identity)

    def authorize_command(self, message: Message, now: float) -> bool:
        """Authorisation hook for :class:`repro.comms.protocols.CommandChannel`."""
        command = str(message.payload.get("command", ""))
        return self.authorize(message.sender, f"command.{command}", now)

    def authorize_from_certificate(
        self, cert: Certificate, permission: str
    ) -> bool:
        """Stateless check straight from a verified certificate's roles."""
        for role_name in cert.roles:
            role = self.roles.get(role_name)
            if role is not None and permission in role.permissions:
                return True
        return False
