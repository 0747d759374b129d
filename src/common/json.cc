#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fbfly
{

std::string
jsonNumber(double x)
{
    if (!std::isfinite(x))
        return "null";
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, x);
        if (std::strtod(buf, nullptr) == x)
            break;
    }
    return buf;
}

void
jsonAppendNumber(std::ostream &os, double x)
{
    os << jsonNumber(x);
}

void
jsonAppendString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\r':
            os << "\\r";
            break;
        case '\t':
            os << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace fbfly
