"""From-scratch NumPy machine learning for the partitioning predictor."""

from .base import (
    Classifier,
    MajorityClassifier,
    accuracy,
    majority_class,
)
from .forest import RandomForestClassifier
from .knn import KNeighborsClassifier
from .neural import MLPClassifier
from .scaling import StandardScaler
from .tree import DecisionTreeClassifier

__all__ = [
    "Classifier",
    "MajorityClassifier",
    "accuracy",
    "majority_class",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "MLPClassifier",
    "StandardScaler",
    "DecisionTreeClassifier",
]
