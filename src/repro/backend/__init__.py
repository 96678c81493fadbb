"""The backend: the admin's server hierarchy (§II-A, §IV-A).

Registration, credential issuance, access-control policies, secret
groups, and the churn/update path whose overhead §VIII analyzes.
"""

from repro.backend.database import (
    BackendDatabase,
    DatabaseError,
    ObjectRecord,
    Policy,
    SubjectRecord,
)
from repro.backend.groups import GroupManager, RekeyReport, SecretGroup
from repro.backend.lkh import KeyUpdate, LKHTree, MemberState, RekeyCost
from repro.backend.registration import (
    Backend,
    ObjectCredentials,
    ObjectVariant,
    SubjectCredentials,
)
from repro.backend.updates import ChurnEngine, UpdateReport
from repro.backend.updatewire import UpdateBatcher

__all__ = [
    "Backend",
    "BackendDatabase",
    "ChurnEngine",
    "DatabaseError",
    "GroupManager",
    "KeyUpdate",
    "LKHTree",
    "MemberState",
    "ObjectCredentials",
    "ObjectRecord",
    "ObjectVariant",
    "Policy",
    "RekeyCost",
    "RekeyReport",
    "SecretGroup",
    "SubjectCredentials",
    "SubjectRecord",
    "UpdateBatcher",
    "UpdateReport",
]
